"""Sequential integration kernels (hot loops).

The coupled system is a single thinning ODE whose right-hand side requires,
at every Runge-Kutta stage, an implicit voltage solve followed by the
radical steady-state chemistry. The loops are scalar and sequential, so
they gain nothing from numpy vectorization; they are plain python over
floats. ``python3 perfbench/run.py --workload datagen_sweep --trace 1``
times them (``kernel.rk4_s``).

``rk4_thinning`` is one flat loop over (step, stage) with the safeguarded
Newton solve, the peroxide/hydroxyl chemistry and the RK4 update written
inline, so no Python call is made per stage. Every floating-point
operation keeps the operands and the order of the standalone
``solve_voltage`` and of a per-stage chemistry function, so the
trajectories are bit-identical to a per-stage function-call form. The rewrites only hoist
values that do not change within a call (the high bracket end's terms
``hi - k1v - k2v*log(p/hi)`` and ``k3v*p/hi``, ``k3v*p``, ``0.5*dt``,
``dt/6``, ``3*k2``) and replace ``abs``/``min`` by comparisons that pick
the same float, NaN included. Stages 1-3 of a step and stage 0 of the
next all start Newton from the voltage of the step's stage 0, so the
first iteration is unrolled and its parts that do not depend on ``t_mem``
are computed once per start: the first iterate ``x0``, ``i0 = p/x0``,
``x0 - k1v - k2v*log(i0)``, ``k3v*i0``, ``1 + k2v/x0`` and ``x0*x0``. Each
is a left-associated prefix of the expression it stood in, so the iterates
do not change. ``tests/test_simulator.py`` pins the loop to that per-stage
reference (all arrays, status and counters, failure exits included) and
pins its Newton iterates to ``solve_voltage``.

``rk4_thinning`` fills output arrays that the caller passes in, so they
may live in memory shared with another process. With a ``progress``
callback it calls ``progress(rows)`` each time another ``CHUNK`` rows are
final, ``rows`` being the number of leading rows recorded so far: the
calls see strictly increasing counts, all below ``n_steps + 1``, and a
failed integration never reports a row past ``fail_step``. The rows after
the last report are final when the kernel returns status 0. Without a
callback the loop pays one integer comparison per step. ``simulate`` and
``reproduce`` pass the ``send`` of a forked CLI stage as the callback, so a
child formats the CSV rows while the integration runs; the last-row count,
``n_steps + 1``, is theirs to send once the integration has succeeded.

Status codes returned by the kernels: 0 ok, 1 no sign-definite voltage
bracket, 2 voltage solve did not converge, 3 membrane thickness reached
zero. ``electrochem.voltage_solve_error`` words 1 and 2 for both kernels;
``simulator.integrate_trajectory`` words 3, which only ``rk4_thinning``
returns.
"""

from __future__ import annotations

import math

V_BRACKET_LO = 0.5
V_BRACKET_HI = 5.0
V_GUESS = 1.8  # first Newton start; rk4_thinning then starts from the step's V
V_TOL = 1.0e-13
V_MAX_ITER = 100
CHUNK = 256  # rows between two progress reports of rk4_thinning


def solve_voltage(k1v, k2v, k3v, p_over_a, t_mem, v_guess):
    """Safeguarded Newton for V = k1v + k2v*ln(i) + k3v*i/t_mem, i = p_over_a/V.

    The residual g(V) = V - RHS(V) is strictly increasing, so a Newton
    step is taken whenever it stays inside the current bracket and a
    bisection step otherwise, until |g(V)| <= V_TOL or V_MAX_ITER
    iterations. Returns (V, iterations, status).
    """
    tol = V_TOL
    max_iter = V_MAX_ITER
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
    out,
    progress=None,
):
    """Fixed-step classical RK4 on the membrane thickness.

    The voltage is re-solved algebraically at every stage, warm-started
    from the voltage recorded at the start of the step. Samples and
    diagnostics are recorded at the n_steps+1 step boundaries into ``out``,
    the arrays (times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters) of
    at least n_steps+1 entries each, iters of an integer dtype; a negative
    ``c_ho_override`` means no override. ``progress``, if given, is called
    with the number of rows recorded after every ``CHUNK`` rows. Returns
    (status, fail_step, clamped, infeasible); the arrays are valid up to
    ``fail_step`` when status != 0. The bracket's low end is tested once, at
    ``t_mem0``: no stage is thicker and its residual never falls as t_mem
    rises, given ``dt``, ``k3v*p_over_a``, ``frr_coeff``, ``tr_conv`` >= 0.
    """
    times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters = out

    log = math.log
    sqrt = math.sqrt
    lo0 = V_BRACKET_LO
    hi0 = V_BRACKET_HI
    mid0 = 0.5 * (lo0 + hi0)
    i_lo = p_over_a / lo0
    if lo0 - k1v - k2v * log(i_lo) - k3v * i_lo / t_mem0 > 0.0:
        return (1, 0, 0, 0)
    i_hi = p_over_a / hi0
    g_hi_head = hi0 - k1v - k2v * log(i_hi)
    g_hi_tail = k3v * i_hi
    k3p = k3v * p_over_a
    k2_3 = 3.0 * k2
    override = c_ho_override >= 0.0
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    v_tol = V_TOL
    newton_iters = range(2, V_MAX_ITER + 1)  # the first iteration is unrolled
    # Index of the step whose row completes the next CHUNK; -1 never comes.
    report_step = CHUNK - 1 if progress is not None else -1

    status = 0
    fail_step = -1
    clamp_count = 0
    infeasible_count = 0
    tm = t_mem0      # thickness at the start of the step
    t_mem = tm       # thickness the current stage is evaluated at
    # The first Newton iterate x0 and the parts of g(x0) and g'(x0) that do
    # not depend on t_mem, shared by the four solves that start from one
    # guess; recomputed, the same way, each time the guess changes.
    x = V_GUESS
    x0 = mid0 if x <= lo0 or x >= hi0 else x
    i_x = p_over_a / x0
    g0_head = x0 - k1v - k2v * log(i_x)
    g0_tail = k3v * i_x
    dg0_head = 1.0 + k2v / x0
    xx0 = x0 * x0
    step = 0
    stage = 0

    while True:
        # Voltage: safeguarded Newton on g(V) = V - RHS(V) at t_mem.
        if g_hi_head - g_hi_tail / t_mem < 0.0:
            status = 1
            fail_step = step
            break
        lo = lo0
        hi = hi0
        x = x0
        g_x = g0_head - g0_tail / t_mem
        it = 1
        if not -v_tol <= g_x <= v_tol:
            if g_x > 0.0:
                hi = x
            else:
                lo = x
            x_new = x - g_x / (dg0_head + k3p / (xx0 * t_mem))
            if x_new <= lo or x_new >= hi:
                x_new = 0.5 * (lo + hi)
            x = x_new
            for it in newton_iters:
                i_x = p_over_a / x
                g_x = x - k1v - k2v * log(i_x) - k3v * i_x / t_mem
                if -v_tol <= g_x <= v_tol:
                    break
                if g_x > 0.0:
                    hi = x
                else:
                    lo = x
                x_new = x - g_x / (1.0 + k2v / x + k3p / (x * x * t_mem))
                if x_new <= lo or x_new >= hi:
                    x_new = 0.5 * (lo + hi)
                x = x_new
            else:
                status = 2
                fail_step = step
                break

        # Chemistry: smallest positive root of the peroxide quadratic
        # (sign-aware stable formula), then hydroxyl clamped at zero.
        w = kappa_w * (p_over_a / x) / e_cl
        wk2 = w - k2
        a = w - k2_3
        s = kc - w
        b = s * wk2 / k3 - v1
        c = -s * v1 / k3
        root = 0.0
        if a == 0.0:
            if b != 0.0:
                root = -c / b
        else:
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                sq = sqrt(disc)
                if b >= 0.0:
                    q = -0.5 * (b + sq)
                else:
                    q = -0.5 * (b - sq)
                r1 = q / a
                r2 = c / q if q != 0.0 else r1
                if r1 > 0.0 and r2 > 0.0:
                    root = r2 if r2 < r1 else r1
                elif r1 > 0.0:
                    root = r1
                elif r2 > 0.0:
                    root = r2
        if root > 0.0:
            c_ho = wk2 / k3 - v1 / (k3 * root)
            if c_ho < 0.0:
                c_ho = 0.0
                clamp_count += 1
        else:
            root = 0.0
            c_ho = 0.0
            infeasible_count += 1
        if override:
            c_ho = c_ho_override
        frr = frr_coeff * c_ho * t_mem
        tr = tr_conv * frr
        d = -tr

        # RK4 bookkeeping: record at the step boundary, then pick the
        # thickness of the next stage.
        if stage == 0:
            times[step] = step * dt
            volts[step] = x
            tmems[step] = t_mem
            c_h2o2s[step] = root
            c_hos[step] = c_ho
            trs[step] = tr
            frrs[step] = frr
            iters[step] = it
            if step == n_steps:
                break
            x0 = mid0 if x <= lo0 or x >= hi0 else x
            i_x = p_over_a / x0
            g0_head = x0 - k1v - k2v * log(i_x)
            g0_tail = k3v * i_x
            dg0_head = 1.0 + k2v / x0
            xx0 = x0 * x0
            if step == report_step:
                progress(step + 1)
                report_step += CHUNK
            k_1 = d
            t_mem = tm + half_dt * k_1
            stage = 1
        elif stage == 1:
            k_2 = d
            t_mem = tm + half_dt * k_2
            stage = 2
        elif stage == 2:
            k_3 = d
            t_mem = tm + dt * k_3
            stage = 3
        else:
            tm = tm + sixth_dt * (k_1 + 2.0 * k_2 + 2.0 * k_3 + d)
            t_mem = tm
            step += 1
            stage = 0
        if t_mem <= 0.0:
            status = 3
            fail_step = step
            break

    return (status, fail_step, clamp_count, infeasible_count)


def get_kernels():
    """Return (solve_voltage, rk4_thinning)."""
    return solve_voltage, rk4_thinning
