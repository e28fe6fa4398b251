/* The fused RK4 thinning loop of _kernel.rk4_thinning, in C.
 *
 * A line-for-line port: every floating-point operation keeps the operands
 * and the order of the Python loop, and log/sqrt are libm's, which
 * CPython's math.log/math.sqrt call too. Built with -ffp-contract=off (no
 * fused multiply-add) and without -ffast-math, so the arrays, status and
 * counters are bit-identical to the Python loop's.
 *
 * The loop never calls back into Python. It returns the status and writes
 * fail_step and the two counters into *r. Where the Python loop would raise
 * (a float division by zero, math.log of a value <= 0) it returns
 * RK4_FAULT at the same point, with the same rows written.
 *
 * _kernel.py builds this file into a shared library and loads it with
 * ctypes; its wrapper checks the output arrays' dtypes, layout and length
 * before the call, so the loop writes only rows 0..n_steps.
 */

#include <math.h>
#include <stdint.h>

#define RK4_FAULT (-2)

/* Field order and types must match _kernel._Rk4Args. */
struct rk4_args {
    int64_t n_steps;
    double dt, t_mem0, k1v, k2v, k3v, p_over_a, kappa_w, e_cl, k2, k3, kc, v1,
        frr_coeff, tr_conv, c_ho_override;
    double v_bracket_lo, v_bracket_hi, v_guess, v_tol;
    int64_t v_max_iter;
    double *times, *volts, *tmems, *c_h2o2s, *c_hos, *trs, *frrs;
    int64_t *iters;
};

/* What the loop returns besides its status. Field order and types must
 * match _kernel._Rk4Result. */
struct rk4_result {
    int64_t fail_step, clamp_count, infeasible_count;
};

/* Whether math.log(v) raises: it returns NaN and +inf unchanged. */
#define LOG_FAULTS(v) ((v) <= 0.0)
#define PY_LOG(v) (isnan(v) ? (v) : log(v))

int64_t pempinn_rk4_thinning(const struct rk4_args *a, struct rk4_result *r)
{
    const int64_t n_steps = a->n_steps;
    const double dt = a->dt, t_mem0 = a->t_mem0, k1v = a->k1v, k2v = a->k2v,
                 k3v = a->k3v, p_over_a = a->p_over_a, kappa_w = a->kappa_w,
                 e_cl = a->e_cl, k2 = a->k2, k3 = a->k3, kc = a->kc,
                 v1 = a->v1, frr_coeff = a->frr_coeff, tr_conv = a->tr_conv,
                 c_ho_override = a->c_ho_override;
    const int64_t max_iter = a->v_max_iter;
    double *const times = a->times, *const volts = a->volts,
                  *const tmems = a->tmems, *const c_h2o2s = a->c_h2o2s,
                  *const c_hos = a->c_hos, *const trs = a->trs,
                  *const frrs = a->frrs;
    int64_t *const iters = a->iters;

    const double lo0 = a->v_bracket_lo;
    const double hi0 = a->v_bracket_hi;
    const double mid0 = 0.5 * (lo0 + hi0);
    double i_lo, i_hi, l, den;
    i_lo = p_over_a / lo0;
    if (LOG_FAULTS(i_lo))
        return RK4_FAULT;
    l = PY_LOG(i_lo);
    if (t_mem0 == 0.0)
        return RK4_FAULT;
    if (lo0 - k1v - k2v * l - k3v * i_lo / t_mem0 > 0.0) {
        r->fail_step = 0;
        r->clamp_count = 0;
        r->infeasible_count = 0;
        return 1;
    }
    i_hi = p_over_a / hi0;
    if (LOG_FAULTS(i_hi))
        return RK4_FAULT;
    const double g_hi_head = hi0 - k1v - k2v * PY_LOG(i_hi);
    const double g_hi_tail = k3v * i_hi;
    const double k3p = k3v * p_over_a;
    const double k2_3 = 3.0 * k2;
    const int override = c_ho_override >= 0.0;
    const double half_dt = 0.5 * dt;
    const double sixth_dt = dt / 6.0;
    const double v_tol = a->v_tol;

    int64_t status = 0;
    int64_t fail_step = -1;
    int64_t clamp_count = 0;
    int64_t infeasible_count = 0;
    int64_t step = 0;
    int64_t stage = 0;
    int64_t it;
    double tm = t_mem0;
    double t_mem = tm;
    double x, x0, i_x, g0_head, g0_tail, dg0_head, xx0;
    double lo, hi, g_x, x_new;
    double w, wk2, aq, sk, b, c, root, disc, sq, q, r1, r2, c_ho, frr, tr;
    double d, k_1 = 0.0, k_2 = 0.0, k_3 = 0.0;

    x = a->v_guess;
    x0 = x <= lo0 || x >= hi0 ? mid0 : x;
    i_x = p_over_a / x0;
    if (LOG_FAULTS(i_x))
        return RK4_FAULT;
    g0_head = x0 - k1v - k2v * PY_LOG(i_x);
    g0_tail = k3v * i_x;
    dg0_head = 1.0 + k2v / x0;
    xx0 = x0 * x0;

    for (;;) {
        /* Voltage: safeguarded Newton on g(V) = V - RHS(V) at t_mem. */
        if (g_hi_head - g_hi_tail / t_mem < 0.0) {
            status = 1;
            fail_step = step;
            break;
        }
        lo = lo0;
        hi = hi0;
        x = x0;
        g_x = g0_head - g0_tail / t_mem;
        it = 1;
        if (!(-v_tol <= g_x && g_x <= v_tol)) {
            if (g_x > 0.0)
                hi = x;
            else
                lo = x;
            den = xx0 * t_mem;
            if (den == 0.0)
                return RK4_FAULT;
            den = dg0_head + k3p / den;
            if (den == 0.0)
                return RK4_FAULT;
            x_new = x - g_x / den;
            if (x_new <= lo || x_new >= hi)
                x_new = 0.5 * (lo + hi);
            x = x_new;
            for (it = 2; it <= max_iter; it++) {
                i_x = p_over_a / x;
                if (LOG_FAULTS(i_x))
                    return RK4_FAULT;
                g_x = x - k1v - k2v * PY_LOG(i_x) - k3v * i_x / t_mem;
                if (-v_tol <= g_x && g_x <= v_tol)
                    break;
                if (g_x > 0.0)
                    hi = x;
                else
                    lo = x;
                den = x * x * t_mem;
                if (den == 0.0)
                    return RK4_FAULT;
                den = 1.0 + k2v / x + k3p / den;
                if (den == 0.0)
                    return RK4_FAULT;
                x_new = x - g_x / den;
                if (x_new <= lo || x_new >= hi)
                    x_new = 0.5 * (lo + hi);
                x = x_new;
            }
            if (it > max_iter) {
                status = 2;
                fail_step = step;
                break;
            }
        }

        /* Chemistry: smallest positive root of the peroxide quadratic
         * (sign-aware stable formula), then hydroxyl clamped at zero. */
        if (e_cl == 0.0)
            return RK4_FAULT;
        w = kappa_w * (p_over_a / x) / e_cl;
        wk2 = w - k2;
        aq = w - k2_3;
        sk = kc - w;
        if (k3 == 0.0)
            return RK4_FAULT;
        b = sk * wk2 / k3 - v1;
        c = -sk * v1 / k3;
        root = 0.0;
        if (aq == 0.0) {
            if (b != 0.0)
                root = -c / b;
        } else {
            disc = b * b - 4.0 * aq * c;
            if (disc >= 0.0) {
                sq = sqrt(disc);
                if (b >= 0.0)
                    q = -0.5 * (b + sq);
                else
                    q = -0.5 * (b - sq);
                r1 = q / aq;
                r2 = q != 0.0 ? c / q : r1;
                if (r1 > 0.0 && r2 > 0.0)
                    root = r2 < r1 ? r2 : r1;
                else if (r1 > 0.0)
                    root = r1;
                else if (r2 > 0.0)
                    root = r2;
            }
        }
        if (root > 0.0) {
            den = k3 * root;
            if (den == 0.0)
                return RK4_FAULT;
            c_ho = wk2 / k3 - v1 / den;
            if (c_ho < 0.0) {
                c_ho = 0.0;
                clamp_count += 1;
            }
        } else {
            root = 0.0;
            c_ho = 0.0;
            infeasible_count += 1;
        }
        if (override)
            c_ho = c_ho_override;
        frr = frr_coeff * c_ho * t_mem;
        tr = tr_conv * frr;
        d = -tr;

        /* RK4 bookkeeping: record at the step boundary, then pick the
         * thickness of the next stage. */
        if (stage == 0) {
            times[step] = (double)step * dt;
            volts[step] = x;
            tmems[step] = t_mem;
            c_h2o2s[step] = root;
            c_hos[step] = c_ho;
            trs[step] = tr;
            frrs[step] = frr;
            iters[step] = it;
            if (step == n_steps)
                break;
            x0 = x <= lo0 || x >= hi0 ? mid0 : x;
            i_x = p_over_a / x0;
            if (LOG_FAULTS(i_x))
                return RK4_FAULT;
            g0_head = x0 - k1v - k2v * PY_LOG(i_x);
            g0_tail = k3v * i_x;
            dg0_head = 1.0 + k2v / x0;
            xx0 = x0 * x0;
            k_1 = d;
            t_mem = tm + half_dt * k_1;
            stage = 1;
        } else if (stage == 1) {
            k_2 = d;
            t_mem = tm + half_dt * k_2;
            stage = 2;
        } else if (stage == 2) {
            k_3 = d;
            t_mem = tm + dt * k_3;
            stage = 3;
        } else {
            tm = tm + sixth_dt * (k_1 + 2.0 * k_2 + 2.0 * k_3 + d);
            t_mem = tm;
            step += 1;
            stage = 0;
        }
        if (t_mem <= 0.0) {
            status = 3;
            fail_step = step;
            break;
        }
    }

    r->fail_step = fail_step;
    r->clamp_count = clamp_count;
    r->infeasible_count = infeasible_count;
    return status;
}
