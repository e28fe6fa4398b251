import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pempinn import _kernel, simulator
from pempinn._fork import ForkedStage
from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.degradation import hydroxyl_chain_partials, thinning_rate
from pempinn.electrochem import voltage_coefficients
from pempinn.errors import ArtifactFormatError, ConfigError, NumericalError
from pempinn.simulator import (
    DATASET_COLUMNS,
    Dataset,
    atomic_open,
    dataset_csv_bytes,
    generate_dataset,
    integrate_trajectory,
    load_dataset,
    save_dataset,
    trajectory_arrays,
    trajectory_rows,
    write_trajectory,
)

GOLDEN_DIR = Path(__file__).parent / "data"


def _c_ho_at_v0(params, cond):
    """c_HO at the default configuration's initial voltage and the true k5."""
    v0 = np.array([2.4264537682997105])
    return hydroxyl_chain_partials(params, cond, v0, params.k5_true)[0][0]


def test_zero_attack_rate_gives_flat_trajectory(params, cond):
    traj = integrate_trajectory(params, cond, k5=0.0, n_steps=64)
    assert np.all(traj.thicknesses == cond.t_mem0)
    assert np.ptp(traj.voltages) == 0.0


def test_trajectory_structure(trajectory, cond):
    assert trajectory.times[0] == 0.0
    assert trajectory.times[-1] == pytest.approx(cond.t_max, rel=1e-15)
    assert np.all(np.diff(trajectory.times) > 0)
    assert np.all(trajectory.thicknesses > 0)
    # energy direction under active degradation
    assert np.all(np.diff(trajectory.thicknesses) < 0)
    assert np.all(np.diff(trajectory.voltages) > 0)


def test_diagnostics_consistent_with_degradation_module(params, cond, trajectory):
    # Re-evaluate TR from the logged (V, t_mem) at a sample of steps.
    idx = np.linspace(0, len(trajectory.times) - 1, 25, dtype=int)
    c_ho = hydroxyl_chain_partials(
        params, cond, trajectory.voltages[idx], params.k5_true
    )[0]
    tr = thinning_rate(params, c_ho, trajectory.thicknesses[idx])
    for got, logged in ((c_ho, trajectory.c_ho[idx]), (tr, trajectory.thinning[idx])):
        assert np.all(np.abs(got - logged) <= 1e-10 * np.maximum(1.0, np.abs(got)))


def test_membrane_vanish_aborts(params, cond):
    # The steady-state chemistry saturates (c_HO < 2*k2/k3), so a genuine
    # zero crossing needs the frozen-radical mode: a huge fixed c_HO makes
    # an RK4 stage overshoot below zero thickness within one step.
    with pytest.raises(NumericalError, match="membrane"):
        integrate_trajectory(params, cond, n_steps=64, c_ho_override=1.0e-3)


def test_chemistry_infeasible_everywhere_aborts(params, cond):
    # k2 = 0.1 leaves the peroxide quadratic without a positive root at
    # every one of the 4 * 64 + 1 stage evaluations.
    no_chemistry = replace(params, k2=0.1)
    with pytest.raises(NumericalError, match="257 stage evaluations"):
        integrate_trajectory(no_chemistry, cond, n_steps=64)
    # A frozen hydroxyl concentration does not need the chemistry.
    traj = integrate_trajectory(no_chemistry, cond, n_steps=64, c_ho_override=0.0)
    assert traj.chemistry_infeasible == 257


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k5": math.nan},
        {"k5": math.inf},
        {"c_ho_override": math.nan},
        {"c_ho_override": math.inf},
        {"c_ho_override": -1.0},
    ],
    ids=["k5_nan", "k5_inf", "c_ho_nan", "c_ho_inf", "c_ho_negative"],
)
def test_integrate_rejects_non_finite_inputs(params, cond, kwargs):
    (key,) = kwargs
    with pytest.raises(ConfigError, match=f"'{key}'"):
        integrate_trajectory(params, cond, n_steps=64, **kwargs)


# -- kernel parity with the per-stage reference -------------------------------
#
# The per-stage form that rk4_thinning replaced, kept as the reference: one
# _reference_derivative call per RK4 stage, each calling solve_voltage and
# the scalar chemistry. The fused loop must reproduce it bit for bit.


def _reference_steady_chemistry(i, kappa_w, e_cl, k2, k3, kc, v1):
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


def _reference_derivative(
    t_mem, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl, k2, k3, kc, v1,
    frr_coeff, tr_conv, c_ho_override,
):
    v, iters, status = _kernel.solve_voltage(
        k1v, k2v, k3v, p_over_a, t_mem, v_guess
    )
    if status != 0:
        return (0.0, math.nan, iters, 0.0, 0.0, 0.0, 0.0, status, 0, 0)
    i = p_over_a / v
    c_h2o2, c_ho, feasible, clamped = _reference_steady_chemistry(
        i, kappa_w, e_cl, k2, k3, kc, v1
    )
    infeasible = 0 if feasible == 1 else 1
    if c_ho_override >= 0.0:
        c_ho = c_ho_override
    frr = frr_coeff * c_ho * t_mem
    tr = tr_conv * frr
    return (-tr, v, iters, c_h2o2, c_ho, tr, frr, 0, clamped, infeasible)


def _reference_rk4_thinning(
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
):
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
        d, v, it, ch, cho, tr, frr, st, cl, inf = _reference_derivative(
            tm, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override,
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
        d, v, it, ch, cho, tr, frr, st, cl, inf = _reference_derivative(
            tm2, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override,
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
        d, v, it, ch, cho, tr, frr, st, cl, inf = _reference_derivative(
            tm3, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override,
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
        d, v, it, ch, cho, tr, frr, st, cl, inf = _reference_derivative(
            tm4, v_guess, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
            k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override,
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


class _KernelCall(Exception):
    pass


def _kernel_args(params, cond, **kwargs):
    """The arguments integrate_trajectory passes to rk4_thinning, by name,
    without the output arrays and the progress callback."""

    def capture(*args):
        raise _KernelCall(args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "get_kernels", lambda: (_kernel.solve_voltage, capture))
        with pytest.raises(_KernelCall) as call:
            integrate_trajectory(params, cond, **kwargs)
    names = inspect.signature(_kernel.rk4_thinning).parameters
    args = dict(zip(names, call.value.args[0]))
    del args["out"], args["progress"]
    return args


def _run_kernel(args, progress=None):
    """The RK4 loop get_kernels() gives, into new arrays: (status, fail_step,
    clamped, infeasible, times, volts, tmems, c_h2o2s, c_hos, trs, frrs,
    iters)."""
    out = trajectory_arrays(args["n_steps"])
    _, rk4 = _kernel.get_kernels()
    return (*rk4(**args, out=out, progress=progress), *out)


def _linear_branch(args, dkc):
    v, _, _ = _kernel.solve_voltage(
        args["k1v"], args["k2v"], args["k3v"], args["p_over_a"], args["t_mem0"],
        1.8,
    )
    w = args["kappa_w"] * (args["p_over_a"] / v) / args["e_cl"]
    assert w - 3.0 * (w / 3.0) == 0.0
    return {"k2": w / 3.0, "kc": w + dkc}


def _parity_cases():
    params = PhysicsParameters()
    cond = OperatingConditions()
    cases = {}
    for n in (10, 64, 1024, 16384):
        for k5 in (0.0, 700.0, 1300.0):
            cases[f"n{n}_k5_{k5:g}"] = (
                0, dict(params=params, cond=cond, k5=k5, n_steps=n), {}
            )
    fast = replace(params, v1=14.0)
    cases["v1_14_k5_5e3"] = (
        0, dict(params=fast, cond=cond, k5=5.0e3, n_steps=1024), {}
    )
    c_ho = _c_ho_at_v0(params, cond)
    cases["frozen_c_ho"] = (
        0, dict(params=params, cond=cond, n_steps=1024, c_ho_override=c_ho), {}
    )
    # Straight to the kernel: kc = 0 clamps the hydroxyl at every stage.
    cases["clamped"] = (0, dict(params=params, cond=cond, n_steps=64), {"kc": 0.0})
    # Straight to the kernel: with k5 = 0 every stage sees the same voltage,
    # and k2 = w/3 zeroes the quadratic term, so the linear branch is taken;
    # kc just above w gives it a negative root, just below w a positive one.
    for name, dkc in (("linear_root_negative", 1.0), ("linear_root_positive", -1.0)):
        cases[name] = (
            0, dict(params=params, cond=cond, k5=0.0, n_steps=16),
            functools.partial(_linear_branch, dkc=dkc),
        )
    # Straight to the kernel: with the root below V_GUESS, the first Newton
    # iterate and a later one lie above it, and the first step leaves the
    # bracket and bisects (root 0.604 V); with the root nearer the bracket's
    # low end, a later step bisects too (0.524 V).
    for name, k1v, k2v in (
        ("root_below_guess", 0.1, 1.0), ("root_near_bracket", 0.2, 0.5)
    ):
        cases[name] = (
            0, dict(params=params, cond=cond, n_steps=64),
            {"k1v": k1v, "k2v": k2v, "k3v": 1e-6, "p_over_a": 1.0},
        )
    cases["membrane_vanish"] = (
        3, dict(params=params, cond=cond, n_steps=64, c_ho_override=1.0e-3), {}
    )
    far = replace(cond, t_max=8.0e6)
    cases["no_bracket"] = (1, dict(params=params, cond=far, k5=1.0e7, n_steps=64), {})
    # Straight to the kernel: a very negative k1v puts the bracket's low end
    # above the root already at t_mem0, so the kernel fails before any row.
    cases["no_bracket_at_start"] = (
        1, dict(params=params, cond=cond, n_steps=64), {"k1v": -100.0}
    )
    # What k5 = nan would pass: a NaN stage derivative makes the next
    # thickness NaN, and the Newton residual NaN must end in status 2.
    cases["nan_k5"] = (
        2, dict(params=params, cond=cond, n_steps=64),
        {"kc": math.nan, "frr_coeff": math.nan},
    )
    return cases


PARITY_CASES = _parity_cases()


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_fused_kernel_matches_per_stage_reference(case, rk4_kernel):
    expected_status, integrate_kwargs, overrides = PARITY_CASES[case]
    args = _kernel_args(**integrate_kwargs)
    args.update(overrides(args) if callable(overrides) else overrides)
    got = _run_kernel(args)
    ref = _reference_rk4_thinning(**args)
    assert got[:4] == ref[:4]
    assert got[0] == expected_status
    status, fail_step = ref[:2]
    end = fail_step if status != 0 else None
    for g, r in zip(got[4:], ref[4:]):
        assert g.dtype == r.dtype
        assert g[:end].tobytes() == r[:end].tobytes()
    stages = 4 * args["n_steps"] + 1
    if case in ("clamped", "linear_root_positive"):
        assert got[2] == stages
    if case == "linear_root_negative":
        assert got[3] == stages
    if case == "no_bracket_at_start":
        assert got[:4] == (1, 0, 0, 0)
        assert not any(a.any() for a in got[4:])  # the arrays start zeroed


def test_failed_voltage_solve_names_its_step_and_thickness(params, cond):
    # The no_bracket parity case loses the bracket after the first step.
    kwargs = dict(params=params, cond=replace(cond, t_max=8.0e6), k5=1.0e7, n_steps=64)
    got = _run_kernel(_kernel_args(**kwargs))
    status, fail_step, tmems = got[0], got[1], got[6]
    assert status == 1 and fail_step > 0
    with pytest.raises(NumericalError) as err:
        integrate_trajectory(**kwargs)
    assert str(err.value).startswith(
        "voltage equation has no sign change on [0.5, 5.0] V at the RK4 step from "
        f"t = {fail_step * 8.0e6 / 64} h, t_mem <= {tmems[fail_step - 1]} cm ("
    )


def _progress_cases():
    params = PhysicsParameters()
    cond = OperatingConditions()
    c_ho = _c_ho_at_v0(params, cond)
    chunk = _kernel.CHUNK
    return {
        "below_one_chunk": dict(params=params, cond=cond, n_steps=10),
        "rows_multiple_of_chunk": dict(params=params, cond=cond, n_steps=2 * chunk - 1),
        "steps_multiple_of_chunk": dict(params=params, cond=cond, n_steps=4 * chunk),
        "k5_1300": dict(params=params, cond=cond, k5=1300.0, n_steps=1000),
        # Ten times the hydroxyl thins the membrane until the voltage
        # bracket is lost at step 710 of 1024.
        "bracket_lost": dict(
            params=params, cond=cond, n_steps=1024, c_ho_override=10.0 * c_ho
        ),
        "no_bracket": dict(
            params=params, cond=replace(cond, t_max=8.0e6), k5=1.0e7, n_steps=4096
        ),
    }


PROGRESS_CASES = _progress_cases()


@pytest.mark.parametrize("case", sorted(PROGRESS_CASES))
def test_progress_callback_changes_nothing_and_reports_final_rows(case, rk4_kernel):
    args = _kernel_args(**PROGRESS_CASES[case])
    plain = _run_kernel(args)
    reports = []
    out = trajectory_arrays(args["n_steps"])

    def progress(rows):
        # The rows reported must already hold their final values.
        reports.append((rows, [a[:rows].copy() for a in out]))

    _, rk4 = _kernel.get_kernels()
    got = rk4(**args, out=out, progress=progress)
    assert got == plain[:4]
    status, fail_step = got[:2]
    end = fail_step if status != 0 else None
    for g, p in zip(out, plain[4:]):
        assert g[:end].tobytes() == p[:end].tobytes()
    counts = [rows for rows, _ in reports]
    chunk = _kernel.CHUNK
    assert counts == list(range(chunk, len(counts) * chunk + 1, chunk))
    if status == 0:
        # Every full chunk but the end, which the caller learns on return.
        assert len(counts) == args["n_steps"] // chunk
    else:
        # Every full chunk before the failing step, and no row past it.
        assert len(counts) >= fail_step // chunk
        assert all(rows - 1 <= fail_step for rows in counts)
    for rows, snapshot in reports:
        for s, p in zip(snapshot, plain[4:]):
            assert s.tobytes() == p[:rows].tobytes()
    if case in ("bracket_lost", "no_bracket"):
        assert status == 1 and counts


class _Stop(Exception):
    pass


def test_exception_from_progress_reaches_the_caller(params, cond, rk4_kernel):
    args = _kernel_args(params, cond, n_steps=4 * _kernel.CHUNK)
    reports = []

    def progress(rows):
        reports.append(rows)
        raise _Stop

    out = trajectory_arrays(args["n_steps"])
    _, rk4 = _kernel.get_kernels()
    with pytest.raises(_Stop):
        rk4(**args, out=out, progress=progress)
    rows = _kernel.CHUNK
    assert reports == [rows]
    plain = _run_kernel(args)
    for a, p in zip(out, plain[4:]):
        assert a[:rows].tobytes() == p[:rows].tobytes()
        assert not a[rows:].any()  # nothing ran after the report


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"t_mem0": 0.0}, ZeroDivisionError),  # the bracket test at t_mem0
        ({"p_over_a": 0.0}, ValueError),       # math.log(0.0)
        ({"e_cl": 0.0}, ZeroDivisionError),    # the first chemistry
        ({"k3": 0.0}, ZeroDivisionError),
    ],
    ids=["t_mem0_zero", "p_over_a_zero", "e_cl_zero", "k3_zero"],
)
def test_float_fault_raises_as_in_the_python_loop(
    params, cond, overrides, error, rk4_kernel
):
    args = {**_kernel_args(params, cond, n_steps=16), **overrides}
    with pytest.raises(error):
        _run_kernel(args)


def test_c_loop_checks_its_output_arrays_before_writing(params, cond, c_rk4):
    # The Python loop takes any arrays it can index.
    n = 16
    args = _kernel_args(params, cond, n_steps=n)
    bad = [(k, lambda a: a[:n]) for k in range(8)]  # one row short
    bad += [(7, lambda a: a.astype(np.int32)), (0, lambda a: np.repeat(a, 2)[::2])]
    for k, spoil in bad:
        out = list(trajectory_arrays(n))
        out[k] = spoil(out[k])
        with pytest.raises(ValueError, match=f"at least {n + 1} rows"):
            c_rk4(**args, out=out)
        assert not any(a.any() for a in out)


def _select_afresh(monkeypatch, cache, compiler):
    """The RK4 loop a new process would select with this cache directory
    and compiler."""
    monkeypatch.setattr(_kernel, "_CACHE", cache)
    monkeypatch.setattr(_kernel, "_compiler", lambda: compiler)
    monkeypatch.setattr(
        _kernel, "_selected", functools.cache(_kernel._selected.__wrapped__)
    )
    _, rk4 = _kernel.get_kernels()
    return rk4


def _trajectory_bytes(traj):
    return [
        np.asarray(getattr(traj, f.name)).tobytes()
        for f in dataclasses.fields(traj)
    ]


@pytest.mark.parametrize("fault", ["compiler_exits_1", "cache_not_writable"])
def test_failed_build_selects_the_python_loop(
    tmp_path, monkeypatch, params, cond, fault
):
    expected = _trajectory_bytes(integrate_trajectory(params, cond, n_steps=64))
    if fault == "compiler_exits_1":
        cache = tmp_path / "cache"
        compiler = [sys.executable, "-c", "raise SystemExit(1)"]
    else:
        # A path under a regular file: unwritable even for root, which
        # permission bits do not stop.
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "__pycache__"
        compiler = _kernel._compiler()
    assert _select_afresh(monkeypatch, cache, compiler) is _kernel.rk4_thinning
    assert _kernel.rk4_kernel_name() == "python"
    got = _trajectory_bytes(integrate_trajectory(params, cond, n_steps=64))
    assert got == expected
    # No temporary library is left behind.
    left = sorted(p.name for p in tmp_path.rglob("*"))
    assert left == (["cache"] if fault == "compiler_exits_1" else ["file"])


def _alive(pid):
    """Whether process ``pid`` runs (a zombie waiting to be reaped does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_timed_out_build_kills_the_whole_compiler(tmp_path, monkeypatch):
    # The "compiler" starts a child of its own, which would outlive it if
    # only the compiler were killed.
    pid_file = tmp_path / "pid"
    compiler = ["sh", "-c", f"sleep 60 & echo $! > '{pid_file}'; wait", "sh"]
    monkeypatch.setattr(_kernel, "BUILD_TIMEOUT", 0.5)
    cache = tmp_path / "cache"
    assert _select_afresh(monkeypatch, cache, compiler) is _kernel.rk4_thinning
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 10.0
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)
    assert list(cache.iterdir()) == []


def test_c_loop_builds_into_an_empty_cache(
    tmp_path, monkeypatch, params, cond, c_rk4
):
    expected = _trajectory_bytes(integrate_trajectory(params, cond, n_steps=64))
    cache = tmp_path / "cache"
    rk4 = _select_afresh(monkeypatch, cache, _kernel._compiler())
    assert rk4 is not _kernel.rk4_thinning
    [lib] = cache.iterdir()  # the library alone, no temporary file
    assert lib.name.startswith("_rk4.") and lib.suffix == ".so"
    got = _trajectory_bytes(integrate_trajectory(params, cond, n_steps=64))
    assert got == expected


def test_inlined_newton_matches_solve_voltage(params, cond):
    traj = integrate_trajectory(params, cond)
    co = voltage_coefficients(params, cond)
    volts = traj.voltages.tolist()
    for k, t_mem in enumerate(traj.thicknesses.tolist()):
        assert _kernel.solve_voltage(
            co.k1V, co.k2V, co.k3V, co.P_over_A, t_mem,
            volts[k - 1] if k else 1.8,
        ) == (volts[k], int(traj.solver_iterations[k]), 0)


@pytest.mark.parametrize("guess", [0.2, 0.5, 5.0, 7.0])
def test_off_bracket_guess_starts_at_the_midpoint(coeffs, cond, guess):
    # A guess on or outside [0.5, 5.0] V starts Newton at 2.75 V instead.
    args = (coeffs.k1V, coeffs.k2V, coeffs.k3V, coeffs.P_over_A, cond.t_mem0)
    got = _kernel.solve_voltage(*args, guess)
    assert got == _kernel.solve_voltage(*args, 2.75)
    assert got[1] > 1 and got[2] == 0


# -- datasets ------------------------------------------------------------


def test_dataset_deterministic_per_seed(trajectory):
    a = generate_dataset(trajectory, 20, 50, 1 / 3, seed=5)
    b = generate_dataset(trajectory, 20, 50, 1 / 3, seed=5)
    assert np.array_equal(a.train_voltages, b.train_voltages)
    assert np.array_equal(a.train_thicknesses, b.train_thicknesses)
    c = generate_dataset(trajectory, 20, 50, 1 / 3, seed=6)
    assert not np.array_equal(a.train_voltages, c.train_voltages)
    assert dataset_csv_bytes(a) == dataset_csv_bytes(b)


def test_dataset_noise_sigma_definition(trajectory, small_dataset):
    # Stored sigma equals the population std of the emitted clean samples.
    assert small_dataset.noise_sigma_v == pytest.approx(
        float(np.std(small_dataset.test_voltages)), abs=1e-12
    )
    assert small_dataset.noise_sigma_mem == pytest.approx(
        float(np.std(small_dataset.test_thicknesses)), abs=1e-12
    )


def test_dataset_train_spacing_matches_protocol(params, cond, trajectory):
    # 100 points over the first third of 8e5 h: spacing (t_max/3)/99.
    ds = generate_dataset(trajectory, 100, 1000, 1 / 3, seed=0)
    assert ds.train_times[0] == 0.0
    assert ds.train_times[1] == pytest.approx(2693.6026936026936, rel=1e-12)
    assert ds.train_times[-1] == pytest.approx(8.0e5 / 3.0, rel=1e-12)
    assert ds.test_times[-1] == pytest.approx(8.0e5, rel=1e-12)
    spacing = np.diff(ds.train_times)
    assert np.allclose(spacing, spacing[0], rtol=1e-9)


def test_dataset_boundary_samples_exact(trajectory):
    # Times requested exactly at step boundaries reproduce trajectory values.
    ds = generate_dataset(trajectory, 5, 1025, 1.0, seed=1)
    # n_test chosen so test times coincide with the 1024-step grid
    assert np.allclose(ds.test_voltages, trajectory.voltages, rtol=0, atol=0)
    assert np.allclose(ds.test_thicknesses, trajectory.thicknesses, rtol=0, atol=0)


def test_dataset_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    checksum = save_dataset(small_dataset, path, config_hash="abc123")
    loaded = load_dataset(path)
    for field in (
        "train_times",
        "train_voltages",
        "train_thicknesses",
        "test_times",
        "test_voltages",
        "test_thicknesses",
    ):
        assert np.array_equal(getattr(loaded, field), getattr(small_dataset, field))
    assert loaded.noise_sigma_v == small_dataset.noise_sigma_v
    assert loaded.seed == small_dataset.seed
    # checksum is stable
    assert save_dataset(small_dataset, path) == checksum


def test_load_reports_missing_column(tmp_path, small_dataset):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    text = path.read_text().replace("thickness_cm", "thickness")
    path.write_text(text)
    with pytest.raises(ArtifactFormatError, match="thickness_cm"):
        load_dataset(path)


def test_load_reports_bad_line_number(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = "train,not_a_number,1.0,0.01,1"
    path.write_text("\n".join(lines) + "\n")
    _raises_both_ways(monkeypatch, path, ":4")


def test_golden_dataset_checksum(params, cond, rk4_kernel):
    # Committed artifact generated once by scripts/make_golden_dataset.py.
    path = GOLDEN_DIR / "golden_dataset.csv"
    meta = json.loads((GOLDEN_DIR / "golden_dataset.csv.meta.json").read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == meta["sha256"]
    ds = load_dataset(path)
    assert len(ds.train_times) == 12
    # Rebuilt as the script does: pins the integrator's numbers too.
    traj = integrate_trajectory(params, cond, n_steps=64)
    fresh = generate_dataset(traj, n_train=12, n_test=30, train_fraction=1 / 3, seed=11)
    assert dataset_csv_bytes(fresh) == path.read_bytes()


# -- loader parity with the csv module ----------------------------------------


def _csv_reference(path):
    """The csv.DictReader loop that load_dataset replaced, kept as the
    reference: (n, 3) arrays of t_hours, voltage_V, thickness_cm per split."""
    rows = {"train": [], "test": []}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["split"]].append(
                (
                    float(row["t_hours"]),
                    float(row["voltage_V"]),
                    float(row["thickness_cm"]),
                )
            )
    return {split: np.array(records) for split, records in rows.items()}


def _write_with_sidecar(path, text):
    """Write dataset CSV text plus a sidecar whose sha256 matches it."""
    path.write_bytes(text.encode())
    _write_with_sidecar_of(path)


def _write_with_sidecar_of(path):
    """Write a sidecar whose sha256 matches the dataset CSV ``path``."""
    payload = path.read_bytes()
    meta = {
        "config_hash": "",
        "noise_sigma_mem": 0.002,
        "noise_sigma_v": 0.01,
        "seed": 11,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "train_fraction": 1 / 3,
    }
    Path(f"{path}.meta.json").write_text(json.dumps(meta))


def _reordered(text):
    order = (3, 4, 1, 0, 2)  # thickness_cm,is_noisy,t_hours,split,voltage_V
    lines = []
    for line in text.splitlines():
        fields = line.split(",")
        lines.append(",".join(fields[i] for i in order))
    return "\n".join(lines) + "\n"


def _interleaved(text):
    header, *rows = text.splitlines()
    train = [r for r in rows if r.startswith("train")]
    test = [r for r in rows if r.startswith("test")]
    mixed = [r for pair in zip(test, train) for r in pair]
    mixed += test[len(train):]
    return "\n".join([header, *mixed]) + "\n"


def _blank_half(half):
    """A layout with more blank lines than text, before or after the rows,
    so that one half of the split file holds no row (loadtxt warns about
    input without rows)."""

    def layout(text):
        header, rows = text.split("\n", 1)
        blank = "\n" * (len(text) + 2)
        return header + "\n" + (blank + rows if half == "first" else rows + blank)

    return layout


LAYOUTS = {
    "reordered_columns": _reordered,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing_blank_line": lambda text: text + "\n",
    "interleaved_splits": _interleaved,
    "blank_first_half": _blank_half("first"),
    "blank_second_half": _blank_half("second"),
}


# load_dataset's two ways of parsing a file, by the SPLIT_BYTES that picks
# each: whole in this process, or split at the midpoint with the head
# parsed in a forked child.
SERIAL, SPLIT = sys.maxsize, 0


def _counted_forks(monkeypatch) -> list:
    """The jobs load_dataset forks from now on, in a list."""
    forks = []

    def counted(job):
        forks.append(job)
        return ForkedStage(job)

    monkeypatch.setattr(simulator, "ForkedStage", counted)
    return forks


def _loaded_both_ways(monkeypatch, path, forks=1):
    """load_dataset(path) parsed whole and parsed split, which must give
    byte-identical arrays and equal metadata; returns the Dataset. The split
    parse forks ``forks`` times: 0 where the file has no line feed past its
    midpoint."""
    forked = _counted_forks(monkeypatch)
    monkeypatch.setattr(simulator, "SPLIT_BYTES", SERIAL)
    whole = load_dataset(path)
    assert forked == []
    monkeypatch.setattr(simulator, "SPLIT_BYTES", SPLIT)
    split = load_dataset(path)
    assert len(forked) == forks
    for field in dataclasses.fields(Dataset):
        a, b = getattr(whole, field.name), getattr(split, field.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b, field.name
    return whole


def _raises_both_ways(monkeypatch, path, match):
    """load_dataset(path) raises the same ArtifactFormatError, matching
    ``match``, whether it parses the file whole or split."""
    messages = []
    for split_bytes in (SERIAL, SPLIT):
        monkeypatch.setattr(simulator, "SPLIT_BYTES", split_bytes)
        with pytest.raises(ArtifactFormatError, match=match) as info:
            load_dataset(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _assert_matches_reference(monkeypatch, path, forks=1):
    ds = _loaded_both_ways(monkeypatch, path, forks)
    ref = _csv_reference(path)
    for split in ("train", "test"):
        got = np.column_stack(
            [
                getattr(ds, f"{split}_times"),
                getattr(ds, f"{split}_voltages"),
                getattr(ds, f"{split}_thicknesses"),
            ]
        )
        assert got.dtype == ref[split].dtype
        assert got.shape == ref[split].shape
        assert got.tobytes() == ref[split].tobytes(), split


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_loader_matches_csv_reference(tmp_path, small_dataset, layout, monkeypatch):
    path = tmp_path / "ds.csv"
    text = dataset_csv_bytes(small_dataset).decode()
    _write_with_sidecar(path, LAYOUTS[layout](text))
    _assert_matches_reference(monkeypatch, path)


@pytest.mark.filterwarnings("error")
def test_loader_matches_csv_reference_beyond_one_chunk(
    tmp_path, trajectory, monkeypatch
):
    # numpy's loadtxt works through files in chunks of 50 000 rows.
    ds = generate_dataset(trajectory, 24, 60_001, 1 / 3, seed=5)
    path = tmp_path / "long.csv"
    save_dataset(ds, path)
    assert path.stat().st_size >= simulator.SPLIT_BYTES  # split by default
    _assert_matches_reference(monkeypatch, path)


@pytest.mark.filterwarnings("error")
def test_loader_matches_csv_reference_on_golden_dataset(monkeypatch):
    _assert_matches_reference(monkeypatch, GOLDEN_DIR / "golden_dataset.csv")


@pytest.mark.filterwarnings("error")
def test_split_inside_a_crlf_row(tmp_path, small_dataset, monkeypatch):
    # Each blank line appended moves the midpoint one byte on, so the
    # midpoints cover a whole row: its "\r" and its "\n" included.
    text = dataset_csv_bytes(small_dataset).decode().replace("\n", "\r\n")
    at_midpoint = set()
    for blank in range(len(text.splitlines()[-1]) + 2):
        path = tmp_path / f"ds{blank}.csv"
        _write_with_sidecar(path, text + "\r\n" * blank)
        raw = path.read_bytes()
        at_midpoint.add(raw[len(raw) // 2 : len(raw) // 2 + 1])
        _assert_matches_reference(monkeypatch, path)
    assert {b"\r", b"\n"} <= at_midpoint


@pytest.mark.filterwarnings("error")
def test_file_without_line_feed_past_midpoint_stays_serial(
    tmp_path, small_dataset, monkeypatch
):
    path = tmp_path / "ds.csv"
    text = dataset_csv_bytes(small_dataset).decode().replace("\n", "\r")
    _write_with_sidecar(path, text)
    _assert_matches_reference(monkeypatch, path, forks=0)


def _damaged_row(small_dataset, half, damage):
    """The dataset CSV with ``damage`` done to a row in its ``half``, and
    that row's line number."""
    raw = dataset_csv_bytes(small_dataset)
    lines = raw.split(b"\n")
    k = 3 if half == "head" else len(lines) - 3
    start = sum(len(line) + 1 for line in lines[:k])
    assert (start < len(raw) // 2) == (half == "head")
    lines[k] = damage(lines[k])
    return b"\n".join(lines), k + 1


@pytest.mark.parametrize("half", ["head", "tail"])
@pytest.mark.parametrize(
    "damage",
    [
        lambda row: b"train,not_a_number" + row[row.index(b",", 6):],
        lambda row: row.replace(b",", b",\xff", 1),  # in t_hours
        # float() reads these two, numpy does not.
        lambda row: b"train,1_0" + row[row.index(b",", 6):],
        lambda row: b"train,\xd9\xa1" + row[row.index(b",", 6):],  # Arabic 1
    ],
    ids=["not_a_number", "not_utf8", "underscore", "non_ascii_digit"],
)
def test_bad_row_in_either_half_is_reported_as_when_parsed_whole(
    tmp_path, small_dataset, monkeypatch, half, damage
):
    path = tmp_path / "ds.csv"
    raw, line = _damaged_row(small_dataset, half, damage)
    path.write_bytes(raw)
    _write_with_sidecar_of(path)
    _raises_both_ways(monkeypatch, path, rf"ds\.csv:{line}: bad row")


@pytest.mark.parametrize("half", ["head", "tail"])
def test_byte_not_utf8_in_unparsed_column_of_either_half(
    tmp_path, small_dataset, monkeypatch, half
):
    # The byte is in a column that is not parsed, so only the rescan's
    # strict decoding finds it; both ways name its line.
    path = tmp_path / "ds.csv"
    raw, line = _damaged_row(small_dataset, half, lambda row: row + b"\xff")
    path.write_bytes(raw)
    _write_with_sidecar_of(path)
    _raises_both_ways(monkeypatch, path, rf"ds\.csv:{line}: bad row \('utf-8'")


def test_bad_row_in_tail_kills_the_running_head_parse(
    tmp_path, small_dataset, monkeypatch
):
    # The head's child is still parsing when this process finds a bad row
    # in the tail; load_dataset must not wait for it, and must reap it.
    path = tmp_path / "ds.csv"
    raw, line = _damaged_row(small_dataset, "tail", lambda row: row[: row.index(b",")])
    path.write_bytes(raw)
    _write_with_sidecar_of(path)
    parse_head = simulator._parse_head

    def slow_parse_head(*args):
        time.sleep(30.0)
        return parse_head(*args)

    monkeypatch.setattr(simulator, "_parse_head", slow_parse_head)
    forked = _counted_forks(monkeypatch)
    monkeypatch.setattr(simulator, "SPLIT_BYTES", SPLIT)
    start = time.monotonic()
    with pytest.raises(ArtifactFormatError, match=rf"ds\.csv:{line}: bad row"):
        load_dataset(path)
    assert time.monotonic() - start < 15.0
    assert len(forked) == 1  # and conftest checks that it was reaped


def test_load_reports_short_row_line_number(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    lines[5] = "train,1.0,2.4"
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    _raises_both_ways(monkeypatch, path, r"ds\.csv:6: bad row")


def test_load_reports_the_row_numpy_rejects(tmp_path, small_dataset, monkeypatch):
    # numpy strips any Unicode whitespace around a number, while float()
    # keeps "\x1c", so line 3 is a good row and line 6 the bad one.
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    lines[2] = lines[2].replace(",", ",\x1c\u2003", 1)
    lines[5] = "train,1.0,2.4"
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    _raises_both_ways(monkeypatch, path, r"ds\.csv:6: bad row \(needs")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_row(tmp_path, small_dataset, value, monkeypatch):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    fields = lines[30].split(",")
    fields[3] = value
    lines[30] = ",".join(fields)
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    _raises_both_ways(monkeypatch, path, r"ds\.csv:31: .*thickness_cm")


def test_load_reports_unknown_split_line_number(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.csv"
    lines = dataset_csv_bytes(small_dataset).decode().splitlines()
    lines[7] = lines[7].replace("train", "trainee", 1)
    _write_with_sidecar(path, "\n".join(lines) + "\n")
    _raises_both_ways(monkeypatch, path, r"ds\.csv:8: unknown split 'trainee'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", ["", "\n\n", "train,0.0,2.4,0.02,1\n"])
def test_load_needs_both_splits(tmp_path, rows, monkeypatch):
    path = tmp_path / "ds.csv"
    _write_with_sidecar(path, ",".join(DATASET_COLUMNS) + "\n" + rows)
    _raises_both_ways(monkeypatch, path, "needs both train and test")


def _quoted_field(text, line, field):
    lines = text.splitlines()
    fields = lines[line - 1].split(",")
    fields[field] = f'"{fields[field]}"'
    lines[line - 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


# The header, the parse and the rescan that names a bad row's line all read
# a line alike: split on commas, with no quoting.
@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda text: text.splitlines()[0] + "\n \t \n", r"ds\.csv:2: bad row"),
        (lambda text: _quoted_field(text, 5, 2), r"ds\.csv:5: bad row"),
        (lambda text: _quoted_field(text, 1, 0), "missing column 'split'"),
    ],
    ids=["whitespace_only_line", "quoted_value", "quoted_header"],
)
def test_load_reads_one_unquoted_row_per_line(
    tmp_path, small_dataset, edit, match, monkeypatch
):
    path = tmp_path / "ds.csv"
    _write_with_sidecar(path, edit(dataset_csv_bytes(small_dataset).decode()))
    _raises_both_ways(monkeypatch, path, match)


def test_load_checks_sidecar_sha256(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    text = path.read_text()
    path.write_text(text.replace("train,", "test,", 1))
    _raises_both_ways(monkeypatch, path, r"sha256.*ds\.csv\.meta\.json")


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda meta: meta.pop("seed"), "seed"),
        (lambda meta: meta.pop("sha256"), "sha256"),
        (lambda meta: meta.update(noise_sigma_v="0.01"), "noise_sigma_v"),
        (lambda meta: meta.update(train_fraction=float("nan")), "train_fraction"),
        (lambda meta: meta.update(seed=1.5), "seed"),
        (lambda meta: meta.update(noise_sigma_v=10**400), "noise_sigma_v"),
    ],
    ids=["no_seed", "no_sha256", "string_sigma", "nan_fraction", "float_seed",
         "huge_int_sigma"],
)
def test_load_validates_sidecar_keys(tmp_path, small_dataset, edit, key, monkeypatch):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    meta_path = Path(f"{path}.meta.json")
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    _raises_both_ways(monkeypatch, path, rf"ds\.csv\.meta\.json: .*'{key}'")


@pytest.mark.parametrize("body", ['{"seed": 11', "[]"])
def test_load_rejects_sidecar_that_is_not_a_json_object(
    tmp_path, small_dataset, body, monkeypatch
):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    Path(f"{path}.meta.json").write_text(body)
    _raises_both_ways(monkeypatch, path, r"ds\.csv\.meta\.json: ")


def test_load_rejects_dataset_without_sidecar(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset, path)
    Path(f"{path}.meta.json").unlink()
    _raises_both_ways(monkeypatch, path, r"ds\.csv: missing sidecar .*ds\.csv\.meta\.json")


def test_settings_validation():
    from pempinn.simulator import SimulationSettings

    with pytest.raises(ConfigError, match="n_train"):
        SimulationSettings(n_train=1)
    with pytest.raises(ConfigError, match="n_steps"):
        SimulationSettings(n_steps=5)
    with pytest.raises(ConfigError, match="train_fraction"):
        SimulationSettings(train_fraction=1.5)


# -- atomic writes -------------------------------------------------------------


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new, half written")
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    with atomic_open(path) as fh:
        fh.write("µm\n")
    assert path.read_bytes() == "µm\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_trajectory_write_keeps_previous_files(tmp_path, trajectory):
    path = tmp_path / "trajectory.csv"
    diag = tmp_path / "trajectory_diagnostics.csv"
    arrays = [
        trajectory.times, trajectory.voltages, trajectory.thicknesses,
        trajectory.c_h2o2, trajectory.c_ho, trajectory.thinning,
        trajectory.fluoride, trajectory.solver_iterations,
    ]
    n = len(trajectory.times)

    def write(arrays):
        write_trajectory([trajectory_rows(arrays, 0, n)], path, diag)

    write(arrays)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # A value that cannot be formatted halfway through each file.
    volts = trajectory.voltages.astype(object)
    volts[n // 2] = "not a number"
    with pytest.raises(ValueError):
        write([*arrays[:1], volts, *arrays[2:]])
    iters = trajectory.solver_iterations.astype(float)
    iters[n // 2] = math.nan
    with pytest.raises(ValueError):
        write([*arrays[:7], iters])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
