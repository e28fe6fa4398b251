"""Sequential integration kernels (hot loops).

The coupled system is a single thinning ODE whose right-hand side requires,
at every Runge-Kutta stage, an implicit voltage solve followed by the
radical steady-state chemistry. The loops are scalar and sequential, so
they gain nothing from numpy vectorization; they are plain python over
floats. ``python3 perfbench/run.py --workload datagen_sweep --trace 1``
times them (``kernel.rk4_s``).

Status codes returned by the kernels: 0 ok, 1 no sign-definite voltage
bracket, 2 voltage solve did not converge, 3 membrane thickness reached
zero. Callers translate these into exceptions.
"""

from __future__ import annotations

import math

import numpy as np

V_BRACKET_LO = 0.5
V_BRACKET_HI = 5.0
V_TOL_DEFAULT = 1.0e-13
V_MAX_ITER = 100


def solve_voltage(k1v, k2v, k3v, p_over_a, t_mem, v_guess, tol, max_iter):
    """Safeguarded Newton for V = k1v + k2v*ln(i) + k3v*i/t_mem, i = p_over_a/V.

    The residual g(V) = V - RHS(V) is strictly increasing, so a Newton
    step is taken whenever it stays inside the current bracket and a
    bisection step otherwise. Returns (V, iterations, status).
    """
    lo = V_BRACKET_LO
    hi = V_BRACKET_HI
    i_lo = p_over_a / lo
    g_lo = lo - k1v - k2v * math.log(i_lo) - k3v * i_lo / t_mem
    i_hi = p_over_a / hi
    g_hi = hi - k1v - k2v * math.log(i_hi) - k3v * i_hi / t_mem
    if g_lo > 0.0 or g_hi < 0.0:
        return (math.nan, 0, 1)
    x = v_guess
    if x <= lo or x >= hi:
        x = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        i_x = p_over_a / x
        g_x = x - k1v - k2v * math.log(i_x) - k3v * i_x / t_mem
        if abs(g_x) <= tol:
            return (x, it, 0)
        if g_x > 0.0:
            hi = x
        else:
            lo = x
        dg_x = 1.0 + k2v / x + k3v * p_over_a / (x * x * t_mem)
        x_new = x - g_x / dg_x
        if x_new <= lo or x_new >= hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    return (x, max_iter, 2)


def steady_chemistry(i, kappa_w, e_cl, k2, k3, kc, v1):
    """Radical steady state at current density i (A/cm2).

    Solves the peroxide quadratic with the sign-aware stable formula,
    keeps the smallest strictly positive root, then evaluates the
    hydroxyl concentration and clamps it at zero.
    Returns (c_h2o2, c_ho, feasible, clamped).
    """
    w = kappa_w * i / e_cl
    a = w - 3.0 * k2
    s = kc - w
    b = s * (w - k2) / k3 - v1
    c = -s * v1 / k3

    feasible = True
    root = 0.0
    if a == 0.0:
        if b == 0.0:
            feasible = False
        else:
            root = -c / b
            feasible = root > 0.0
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            feasible = False
        else:
            sq = math.sqrt(disc)
            if b >= 0.0:
                q = -0.5 * (b + sq)
            else:
                q = -0.5 * (b - sq)
            r1 = q / a
            if q != 0.0:
                r2 = c / q
            else:
                r2 = r1
            if r1 > 0.0 and r2 > 0.0:
                root = min(r1, r2)
            elif r1 > 0.0:
                root = r1
            elif r2 > 0.0:
                root = r2
            else:
                feasible = False

    if not feasible:
        return (0.0, 0.0, 0, 0)
    c_ho = (w - k2) / k3 - v1 / (k3 * root)
    clamped = 0
    if c_ho < 0.0:
        c_ho = 0.0
        clamped = 1
    return (root, c_ho, 1, clamped)


def _derivative(
    t_mem,
    v_guess,
    k1v,
    k2v,
    k3v,
    p_over_a,
    kappa_w,
    e_cl,
    k2,
    k3,
    kc,
    v1,
    frr_coeff,
    tr_conv,
    c_ho_override,
    v_tol,
):
    """One right-hand-side evaluation; returns all per-stage diagnostics."""
    v, iters, status = solve_voltage(
        k1v, k2v, k3v, p_over_a, t_mem, v_guess, v_tol, V_MAX_ITER
    )
    if status != 0:
        return (0.0, math.nan, iters, 0.0, 0.0, 0.0, 0.0, status, 0, 0)
    i = p_over_a / v
    c_h2o2, c_ho, feasible, clamped = steady_chemistry(
        i, kappa_w, e_cl, k2, k3, kc, v1
    )
    infeasible = 0 if feasible == 1 else 1
    if c_ho_override >= 0.0:
        c_ho = c_ho_override
    frr = frr_coeff * c_ho * t_mem
    tr = tr_conv * frr
    return (-tr, v, iters, c_h2o2, c_ho, tr, frr, 0, clamped, infeasible)


def rk4_thinning(
    n_steps,
    dt,
    t_mem0,
    k1v,
    k2v,
    k3v,
    p_over_a,
    kappa_w,
    e_cl,
    k2,
    k3,
    kc,
    v1,
    frr_coeff,
    tr_conv,
    c_ho_override,
    v_tol,
):
    """Fixed-step classical RK4 on the membrane thickness.

    The voltage is re-solved algebraically at every stage (warm-started
    from the previous solve). Samples and diagnostics are recorded at
    the n_steps+1 step boundaries.
    """
    n_out = n_steps + 1
    times = np.empty(n_out)
    volts = np.empty(n_out)
    tmems = np.empty(n_out)
    c_h2o2s = np.empty(n_out)
    c_hos = np.empty(n_out)
    trs = np.empty(n_out)
    frrs = np.empty(n_out)
    iters = np.zeros(n_out, dtype=np.int64)

    status = 0
    fail_step = -1
    clamp_count = 0
    infeasible_count = 0
    tm = t_mem0
    v_guess = 1.8

    for step in range(n_out):
        d, v, it, ch, cho, tr, frr, st, cl, inf = _derivative(
            tm, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override, v_tol,
        )
        if st != 0:
            status = st
            fail_step = step
            break
        times[step] = step * dt
        volts[step] = v
        tmems[step] = tm
        c_h2o2s[step] = ch
        c_hos[step] = cho
        trs[step] = tr
        frrs[step] = frr
        iters[step] = it
        clamp_count += cl
        infeasible_count += inf
        v_guess = v
        if step == n_steps:
            break

        k_1 = d
        tm2 = tm + 0.5 * dt * k_1
        if tm2 <= 0.0:
            status = 3
            fail_step = step
            break
        d, v, it, ch, cho, tr, frr, st, cl, inf = _derivative(
            tm2, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override, v_tol,
        )
        if st != 0:
            status = st
            fail_step = step
            break
        clamp_count += cl
        infeasible_count += inf
        k_2 = d

        tm3 = tm + 0.5 * dt * k_2
        if tm3 <= 0.0:
            status = 3
            fail_step = step
            break
        d, v, it, ch, cho, tr, frr, st, cl, inf = _derivative(
            tm3, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override, v_tol,
        )
        if st != 0:
            status = st
            fail_step = step
            break
        clamp_count += cl
        infeasible_count += inf
        k_3 = d

        tm4 = tm + dt * k_3
        if tm4 <= 0.0:
            status = 3
            fail_step = step
            break
        d, v, it, ch, cho, tr, frr, st, cl, inf = _derivative(
            tm4, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override, v_tol,
        )
        if st != 0:
            status = st
            fail_step = step
            break
        clamp_count += cl
        infeasible_count += inf
        k_4 = d

        tm = tm + (dt / 6.0) * (k_1 + 2.0 * k_2 + 2.0 * k_3 + k_4)
        if tm <= 0.0:
            status = 3
            fail_step = step + 1
            break

    return (
        status,
        fail_step,
        clamp_count,
        infeasible_count,
        times,
        volts,
        tmems,
        c_h2o2s,
        c_hos,
        trs,
        frrs,
        iters,
    )


def get_kernels():
    """Return (solve_voltage, steady_chemistry, rk4_thinning)."""
    return solve_voltage, steady_chemistry, rk4_thinning
