/* The physics-residual block of training.composite_loss, in C.
 *
 * One pass over the collocation columns does the work of
 * training.residual_partials, degradation.hydroxyl_chain_partials and
 * composite_loss's assembly of the gradient rows: it reads rows 0 and 1 of
 * y and dy, writes the collocation columns of the four gradient rows and
 * three work rows (r_v*r_v, r_m*r_m and the k5_hat terms), and counts the
 * clamped outputs, the infeasible chemistry and the clamped hydroxyl. The
 * sums of the work rows stay in numpy, as do the scalars, which
 * _residual.py forms from the same operands as the numpy code.
 *
 * A line-for-line port: every floating-point operation keeps the operands
 * and the order of the numpy code, sqrt is libm's, and the file is built
 * with -ffp-contract=off (no fused multiply-add) and without -ffast-math,
 * so the rows are bit-identical to numpy's, whose +, -, *, / and sqrt are
 * correctly rounded too. The relational comparisons use isgreater() and
 * its kin, which, like numpy's comparisons, raise no flag on a NaN.
 *
 * Float faults: the block clears the divide-by-zero, overflow and invalid
 * flags on entry and returns 1 when any is raised on exit, and the caller
 * then discards the rows and reruns the numpy code, which warns or raises
 * as it always has. So that no flag numpy would raise is missed, every
 * operation numpy evaluates is evaluated here as well: both sides of each
 * np.where (KEEP stops the compiler from dropping a side whose value a
 * point does not use) and, when any point has a == 0, the linear root of
 * every point.
 *
 * _residual.py builds this file into a shared library through
 * _kernel._load and calls it with ctypes; CResidualBlock.rows checks the
 * arrays' dtypes, layout and shapes before the call.
 */

#include <fenv.h>
#include <math.h>
#include <stdint.h>

#define FAULTS (FE_DIVBYZERO | FE_OVERFLOW | FE_INVALID)

/* Evaluates x, whether or not anything reads it. */
#define KEEP(x) (keep = (x))

/* Field order and types must match _residual._Args. */
struct residual_args {
    int64_t n_c, stride;
    const double *y, *dy;  /* rows 0 and 1 at y[0], y[stride] */
    double *g_y, *g_dy;    /* the same layout */
    double *work;          /* three rows of n_c */
    double clamp_eps, v_ref, t_ref, k2v, k3v_pa, t_over_v;
    double p, a_cell, kappa_w, e_cl, kc, k2_3, k2, k3, v1, k2_k3, v1_k3,
        c_mem_k3;
    double k5, stoich_k5, c_mem, mm_f, per_fluoride, scale, rate_k5,
        rate_k5_scale, cv_coef, cm_coef;
};

/* Field order and types must match _residual._Counts. */
struct residual_counts {
    int64_t output_clamped, chemistry_infeasible, hydroxyl_clamped;
};

/* The voltage of output y_v, floored at clamp_eps; *live says whether it
 * lies above the floor. */
static double voltage(const struct residual_args *a, double y_v, int *live)
{
    *live = isgreater(y_v, a->clamp_eps);
    return a->v_ref * (*live ? y_v : a->clamp_eps);
}

/* degradation.peroxide_quadratic_coefficients at voltage v. */
static void quadratic(const struct residual_args *a, double v, double *w,
                      double *s, double *qa, double *qb, double *qc)
{
    const double i = a->p / (a->a_cell * v);
    *w = a->kappa_w * i / a->e_cl;
    *s = a->kc - *w;
    *qa = *w - a->k2_3;
    *qb = *s * (*w - a->k2) / a->k3 - a->v1;
    *qc = -*s * a->v1 / a->k3;
}

int64_t pempinn_residual_block(const struct residual_args *a,
                               struct residual_counts *r)
{
    const int64_t n_c = a->n_c, stride = a->stride;
    const double k2 = a->k2, k3 = a->k3, v1 = a->v1;
    double *const rv2 = a->work, *const rm2 = a->work + n_c,
                  *const k5_terms = a->work + 2 * n_c;
    volatile double keep;
    int64_t dead = 0, infeasible = 0, clamped = 0, j;
    int any_linear = 0;

    feclearexcept(FAULTS);
    for (j = 0; j < n_c; j++) {
        const double y_m = a->y[stride + j];
        const double dyv = a->dy[j], dym = a->dy[stride + j];
        int live_v, live_m;

        /* training.residual_partials: the voltage residual. */
        const double v = voltage(a, a->y[j], &live_v);
        live_m = isgreater(y_m, a->clamp_eps);
        dead += !live_v + !live_m;
        const double tm = a->t_ref * (live_m ? y_m : a->clamp_eps);
        const double dv = a->v_ref * (live_v ? 1.0 : 0.0);
        const double dtm = a->t_ref * (live_m ? 1.0 : 0.0);
        const double inv_v = 1.0 / v;
        const double inv_tm = 1.0 / tm;
        const double kin = a->k2v * inv_v;
        const double ohm = a->k3v_pa * inv_tm * inv_v * inv_v;
        const double bracket = 1.0 + kin + ohm;
        const double cross = ohm * v * inv_tm * a->t_over_v;
        const double r_v = dyv * bracket + cross * dym;
        const double dv_yv =
            -(dyv * (kin + 2.0 * ohm) + dym * cross) * inv_v * dv;
        const double dv_ym = -(dyv * ohm + 2.0 * dym * cross) * inv_tm * dtm;

        /* degradation.solve_peroxide_selected. */
        double w, s, qa, qb, qc;
        quadratic(a, v, &w, &s, &qa, &qb, &qc);
        const int linear = qa == 0.0;
        const double disc = qb * qb - 4.0 * qa * qc;
        const int disc_ok = isgreaterequal(disc, 0.0);
        const double sq = sqrt(disc_ok ? disc : 0.0);
        const double q = (qb + (isgreaterequal(qb, 0.0) ? sq : -sq)) * -0.5;
        const double r1 = q / (linear ? 1.0 : qa);
        const int q_ok = q != 0.0;
        const double c_q = qc / (q_ok ? q : 1.0);
        const double r2 = q_ok ? c_q : r1;
        const int pos1 = disc_ok && !linear && isgreater(r1, 0.0);
        const int pos2 = disc_ok && !linear && isgreater(r2, 0.0);
        const int pick1 = pos1 && (!pos2 || islessequal(r1, r2));
        double root = pick1 ? r1 : pos2 ? r2 : 1.0;
        int feasible = pos1 || pos2;
        KEEP(r1);
        KEEP(c_q);
        if (linear) {
            const double lin_root = -qc / (qb != 0.0 ? qb : 1.0);
            const int lin_feasible = qb != 0.0 && isgreater(lin_root, 0.0);
            root = lin_feasible ? lin_root : 1.0;
            feasible = lin_feasible;
            any_linear = 1;
        }

        /* degradation.hydroxyl_chain_partials. */
        const double raw = w / k3 - a->k2_k3 - v1 / (k3 * root);
        const int positive = feasible && isgreater(raw, 0.0);
        infeasible += !feasible;
        clamped += feasible && !positive;
        const double dw_dv = -w / v;
        const double root2 = root * root;
        const double slope = 2.0 * qa * root + qb;
        const double inv_slope = -1.0 / (positive ? slope : 1.0);
        const double dr_dv =
            (root2 + (s - w + k2) / k3 * root + a->v1_k3) * dw_dv * inv_slope;
        const double dr_dk5 = a->c_mem_k3 * ((w - k2) * root - v1) * inv_slope;
        const double dc_dr = v1 / (k3 * root2);
        const double dc_dv_all = dw_dv / k3 + dc_dr * dr_dv;
        const double dc_dk5_all = dc_dr * dr_dk5;
        KEEP(slope);
        KEEP(dc_dv_all);
        KEEP(dc_dk5_all);
        const double c_ho = positive ? raw : 0.0;
        const double dc_dv = positive ? dc_dv_all : 0.0;
        const double dc_dk5 = positive ? dc_dk5_all : 0.0;

        /* training.residual_partials: the thinning residual, through
         * degradation.thinning_rate. */
        const double tr = a->stoich_k5 * c_ho * a->c_mem * a->mm_f * tm
                          * 3600.0 * 1.0e-6 * 1.0e6 * a->per_fluoride;
        const double r_m = dym + a->scale * tr;
        const double dm_yv = a->rate_k5 * tm * dc_dv * dv;
        const double dm_ym = a->rate_k5 * c_ho * dtm;
        const double dm_k5 = a->rate_k5_scale * tm * (c_ho + a->k5 * dc_dk5);

        /* training.composite_loss: the gradient rows. */
        const double cv = a->cv_coef * r_v;
        const double cm = a->cm_coef * r_m;
        rv2[j] = r_v * r_v;
        rm2[j] = r_m * r_m;
        a->g_y[j] = cv * dv_yv + cm * dm_yv;
        a->g_y[stride + j] = cv * dv_ym + cm * dm_ym;
        a->g_dy[j] = cv * bracket + cm * 0.0;
        a->g_dy[stride + j] = cv * cross + cm;
        k5_terms[j] = cv * 0.0 + cm * dm_k5;
    }
    if (any_linear) {
        /* numpy's linear roots at the points with a != 0 too. */
        for (j = 0; j < n_c; j++) {
            double w, s, qa, qb, qc;
            int live;
            quadratic(a, voltage(a, a->y[j], &live), &w, &s, &qa, &qb, &qc);
            KEEP(-qc / (qb != 0.0 ? qb : 1.0));
        }
    }

    r->output_clamped = 2 * dead;
    r->chemistry_infeasible = infeasible;
    r->hydroxyl_clamped = clamped;
    return fetestexcept(FAULTS) ? 1 : 0;
}
