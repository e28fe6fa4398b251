"""Sequential integration kernels, CSV row formatters, the dataset parser
and the training's residual block.

The coupled system is a single thinning ODE whose right-hand side requires,
at every Runge-Kutta stage, an implicit voltage solve followed by the
radical steady-state chemistry. The loops are scalar and sequential, so
they gain nothing from numpy vectorization: ``solve_voltage`` and
``rk4_thinning`` are plain python over floats, and ``rk4_thinning`` also has
a copy in C, ``_rk4.c``, which ``get_kernels`` returns where it can.
``python3 perfbench/run.py --workload datagen_sweep --trace 1`` times the
loop that runs (``kernel.rk4_s``).

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

``_rk4.c`` is that loop ported line for line: the same operands in the same
order, libm's ``log`` and ``sqrt`` (which ``math.log`` and ``math.sqrt``
call), no fused multiply-add, so its bits are the Python loop's; where the
Python loop would raise, it stops at the same point and the Python loop is
rerun for the exception.

The trajectory and dataset CSVs write each float as its ``repr``.
``repr_trajectory_rows`` and ``repr_float_rows`` call ``repr``;
``_repr.c`` writes the same bytes about 11x faster, with Ryu's shortest
round-trip digits (Adams, PLDI 2018) laid out as ``repr`` lays them out.
Its two tables of powers of 5 are not committed: ``_repr_table`` computes
them from Python ints for each build. ``get_formatter`` gives the pair
that runs, as a ``RowFormatter``; the C pair sends columns it cannot read
directly (another dtype, byte order or layout, or bounds past the end) to
the ``repr`` pair, so those raise, or not, as they did.

``simulator.load_dataset`` reads dataset CSVs with ``_parse.c``, which
turns each number into the nearest double as ``np.loadtxt`` and ``float``
do, by Eisel-Lemire's algorithm (Lemire, SPE 2021). Its table of 128-bit
powers of 5 is computed by ``_parse_table`` for each build. It reads only
a narrow grammar (see ``_parse.c``) and declines any other file, which
``np.loadtxt`` then reads. ``get_dataset_parser`` gives its ``SplitRows``
factory, or None.

``training.composite_loss`` computes its two physics residuals, their
partials and its gradient rows with ``_residual.c``, wrapped by
``_residual.py``: ``training.residual_partials``,
``degradation.hydroxyl_chain_partials`` and the rows of
``training.residual_block`` in one C pass over the collocation points,
the same operands in the same order, with ``sqrt`` and the four
arithmetic operations alone, each correctly rounded in numpy and in C, so
the same bits. The sums stay in numpy. Where a float operation of the
pass divides by zero, overflows or is invalid, or the arrays are not laid
out as the pass reads them, ``training.residual_block`` runs instead, with
numpy's warnings and errors. ``get_residual_block`` gives the block that
runs.

The four C files are built the same way, on first use in a process and
never at import: CPython's C compiler (``sysconfig``'s ``CC``) writes the
shared library into this package's ``__pycache__``, under a name keyed by
the sha256 of the source, of the name and file of the function that
generates its table (the table text is made only for a build), of the
compile command and of the platform, via a temporary file and
``os.replace``; later processes load the cached library, trusted as a
``.pyc`` is. Before using it, each process checks it once against the
Python code: the RK4 loop on one fixed case, the formatter on a fixed
corpus (``_repr_corpus``), comparing bytes, the parser on that corpus's
finite values written with ``repr``, comparing the bits ``float`` reads,
and the residual block on a fixed block with every branch
(``_residual.check_cases``), comparing the bytes of every row and the
counts. Without a compiler, or when the build fails or times out, the
directory cannot be written, the library does not load or the check
fails, the Python code runs, and one stderr line per process says so. No
setting picks either; ``rk4_kernel_name``, ``repr_formatter_name``,
``dataset_parser_name`` and ``residual_kernel_name`` say which runs, and
the manifest entries of the commands that run them record it: the first
two for ``simulate``, ``generate-data`` and ``reproduce``, the parser for
``train`` and ``evaluate``, the residual block for training runs with the
physics terms on.

Status codes returned by the kernels: 0 ok, 1 no sign-definite voltage
bracket, 2 voltage solve did not converge, 3 membrane thickness reached
zero. ``electrochem.voltage_solve_error`` words 1 and 2 for both kernels;
``simulator.integrate_trajectory`` words 3, which only the RK4 loop
returns.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

V_BRACKET_LO = 0.5
V_BRACKET_HI = 5.0
V_GUESS = 1.8  # first Newton start; rk4_thinning then starts from the step's V
V_TOL = 1.0e-13
V_MAX_ITER = 100


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
):
    """Fixed-step classical RK4 on the membrane thickness.

    The voltage is re-solved algebraically at every stage, warm-started
    from the voltage recorded at the start of the step. Samples and
    diagnostics are recorded at the n_steps+1 step boundaries into ``out``,
    the arrays (times, volts, tmems, c_h2o2s, c_hos, trs, frrs, iters) of
    at least n_steps+1 entries each, iters of an integer dtype; a negative
    ``c_ho_override`` means no override. Returns (status, fail_step,
    clamped, infeasible); the arrays are valid up to ``fail_step`` when
    status != 0. The bracket's low end is tested once, at ``t_mem0``: no
    stage is thicker and its residual never falls as t_mem rises, given
    ``dt``, ``k3v*p_over_a``, ``frr_coeff``, ``tr_conv`` >= 0.
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


# -- the C copy of rk4_thinning ------------------------------------------

_SOURCE = Path(__file__).with_name("_rk4.c")
_CACHE = _SOURCE.with_name("__pycache__")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT = 120.0  # seconds; the compile takes well under one
_FAULT = -2  # RK4_FAULT in _rk4.c: the Python loop raises at this point
_OUT_DTYPES = (np.float64,) * 7 + (np.int64,)


class _Rk4Args(ctypes.Structure):
    """``struct rk4_args`` of ``_rk4.c``."""

    _fields_ = [
        ("n_steps", ctypes.c_int64),
        *[(name, ctypes.c_double) for name in (
            "dt", "t_mem0", "k1v", "k2v", "k3v", "p_over_a", "kappa_w", "e_cl",
            "k2", "k3", "kc", "v1", "frr_coeff", "tr_conv", "c_ho_override",
            "v_bracket_lo", "v_bracket_hi", "v_guess", "v_tol",
        )],
        ("v_max_iter", ctypes.c_int64),
        *[(name, ctypes.c_void_p) for name in (
            "times", "volts", "tmems", "c_h2o2s", "c_hos", "trs", "frrs", "iters",
        )],
    ]


class _Rk4Result(ctypes.Structure):
    """``struct rk4_result`` of ``_rk4.c``."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in ("fail_step", "clamp_count", "infeasible_count")
    ]


def _is_column(a, dtype, rows):
    """Whether ``a`` is a 1-d, C-contiguous array of ``dtype`` in native
    byte order, of at least ``rows`` rows."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.ndim == 1
        and a.flags.c_contiguous
        and len(a) >= rows
    )


def _columns_fit(arrays, rows):
    """Whether ``arrays`` are eight ``_is_column`` arrays of at least
    ``rows`` rows, seven float64 then an int64."""
    return len(arrays) == len(_OUT_DTYPES) and all(
        _is_column(a, dtype, rows) for a, dtype in zip(arrays, _OUT_DTYPES)
    )


def _check_out(out, n_steps):
    """Raise ValueError unless ``out`` is the eight arrays the C loop may
    fill: ``_columns_fit`` for ``n_steps + 1 >= 1`` rows, and writable."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, not {n_steps}")
    if not (_columns_fit(out, n_steps + 1) and all(a.flags.writeable for a in out)):
        raise ValueError(
            "the C RK4 loop writes into 8 writable, C-contiguous 1-d arrays "
            f"(7 float64, then int64 iters) of at least {n_steps + 1} rows"
        )


def _c_rk4(run):
    """``rk4_thinning`` over ``run``, the loop of a loaded ``_rk4.c``."""

    def rk4_thinning_c(
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
    ):
        """``rk4_thinning`` run by ``_rk4.c``: the same arguments and
        results. ``out`` must be arrays such as
        ``simulator.trajectory_arrays`` makes; others raise ValueError
        before a row is written."""
        _check_out(out, n_steps)
        args = _Rk4Args(
            n_steps, dt, t_mem0, k1v, k2v, k3v, p_over_a, kappa_w, e_cl, k2, k3,
            kc, v1, frr_coeff, tr_conv, c_ho_override,
            V_BRACKET_LO, V_BRACKET_HI, V_GUESS, V_TOL, V_MAX_ITER,
            *(a.ctypes.data for a in out),
        )
        result = _Rk4Result()
        status = run(args, result)
        if status == _FAULT:
            # Rewrites the same rows, then raises where the C loop stopped.
            return rk4_thinning(
                n_steps, dt, t_mem0, k1v, k2v, k3v, p_over_a, kappa_w, e_cl,
                k2, k3, kc, v1, frr_coeff, tr_conv, c_ho_override, out,
            )
        return (status, result.fail_step, result.clamp_count, result.infeasible_count)

    return rk4_thinning_c


def _compiler():
    """The C compiler CPython was built with, as an argv prefix, or None."""
    import shlex
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def _compile(argv):
    """Run ``argv`` in its own process group; kill the whole group if it is
    still running after ``BUILD_TIMEOUT``, so no compiler pass outlives it."""
    import signal
    import subprocess

    with subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        try:
            code = proc.wait(BUILD_TIMEOUT)
        finally:
            if proc.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, argv)


def _library(cc, source, table=None):
    """The shared library ``cc`` builds from the C file ``source``, with
    the C text that ``table()`` returns read before it (``-include``),
    compiled into ``_CACHE`` unless a process has done so already. The key
    covers the name of ``table`` and the file that defines it, not the
    text, so that text is made only for a build."""
    import hashlib
    import sysconfig
    import tempfile

    key = hashlib.sha256(source.read_bytes())
    if table is not None:
        key.update(table.__qualname__.encode())
        key.update(Path(table.__code__.co_filename).read_bytes())
    key.update(repr((cc, _CFLAGS, sysconfig.get_platform())).encode())
    lib = _CACHE / f"{source.stem}.{key.hexdigest()}.so"
    if lib.exists():
        return lib
    _CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{source.stem}.", suffix=".tmp", dir=_CACHE)
    os.close(fd)
    include = []
    try:
        if table is not None:
            fd, path = tempfile.mkstemp(
                prefix=f"{source.stem}.", suffix=".h.tmp", dir=_CACHE
            )
            include = ["-include", path]
            with os.fdopen(fd, "w") as fh:
                fh.write(table())
        _compile([*cc, *_CFLAGS, *include, "-o", tmp, str(source), "-lm"])
        os.replace(tmp, lib)
    finally:
        for path in (tmp, *include[1:]):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
    return lib


def _load(source, table=None):
    """``ctypes.CDLL`` of ``_library(source, table)``, or None where it
    cannot be built or loaded."""
    import subprocess

    cc = _compiler()
    if cc is None:
        return None
    try:
        return ctypes.CDLL(str(_library(cc, source, table)))
    except (OSError, subprocess.SubprocessError):
        return None


# The packaged defaults at k5_true, as integrate_trajectory passes them,
# over 256 steps: chemistry and warm-started Newton.
_CHECK_ARGS = (
    256, 3125.0, 0.0175, 2.508791747415591, 0.10793508213711975,
    0.0026869382850182406, 0.7352941176470589, 3e-06, 1e-05, 1.2e-07, 27000.0,
    3000000.0, 5.566676316117318, 443185343999.99994, 6.159152500615915e-07,
    -1.0,
)


def _same_bits(rk4):
    """Whether ``rk4`` gives the Python loop's result and array bytes on
    ``_CHECK_ARGS``."""
    rows = _CHECK_ARGS[0] + 1
    runs = []
    for kernel in (rk4, rk4_thinning):
        out = (*np.zeros((7, rows)), np.zeros(rows, np.int64))
        result = kernel(*_CHECK_ARGS, out)
        runs.append((result, [a.tobytes() for a in out]))
    return runs[0] == runs[1]


def _c_loop():
    """``rk4_thinning``'s C copy, or None where it cannot be built or
    loaded."""
    lib = _load(_SOURCE)
    if lib is None:
        return None
    run = lib.pempinn_rk4_thinning
    run.argtypes = (ctypes.POINTER(_Rk4Args), ctypes.POINTER(_Rk4Result))
    run.restype = ctypes.c_int64
    return _c_rk4(run)


@functools.cache
def _selected():
    """The RK4 loop of this process: the C copy where ``_c_loop`` gives one
    and it has the Python loop's bits on ``_CHECK_ARGS``, else
    ``rk4_thinning``."""
    rk4 = _c_loop()
    if rk4 is not None and _same_bits(rk4):
        return rk4
    _fell_back("RK4 loop", "the Python loop")
    return rk4_thinning


def get_kernels():
    """Return (solve_voltage, rk4), rk4 the C copy of ``rk4_thinning`` where
    it builds, loads and passes its check, else ``rk4_thinning`` itself."""
    return solve_voltage, _selected()


def rk4_kernel_name():
    """Which RK4 loop ``get_kernels`` returns in this process: "c" or
    "python"."""
    return "python" if _selected() is rk4_thinning else "c"


# -- the CSV row formatters: repr, and its C copy --------------------------


def repr_trajectory_rows(arrays, start, stop) -> tuple:
    """Rows ``start:stop`` of the trajectory CSV and of its diagnostics CSV,
    as two ASCII byte strings, from the eight columns in
    ``simulator.trajectory_arrays`` order: each value the ``repr`` of a
    float, the iteration count an integer (any other value raises
    ValueError)."""
    t, v, m, h2o2, ho, tr, fr = (
        np.asarray(a[start:stop], dtype=np.float64).tolist() for a in arrays[:7]
    )
    it = arrays[7][start:stop].tolist()
    t = list(map(repr, t))  # formatted once: it opens the rows of both files
    trajectory = "".join([f"{a},{b!r},{c!r}\n" for a, b, c in zip(t, v, m)])
    diagnostics = "".join(
        [
            f"{a},{b!r},{c!r},{d!r},{e!r},{n:d}\n"
            for a, b, c, d, e, n in zip(t, ho, h2o2, tr, fr, it)
        ]
    )
    return trajectory.encode(), diagnostics.encode()


def repr_float_rows(columns, prefix: str, suffix: str) -> bytes:
    """One CSV row per index of ``columns``: ``prefix``, the ``repr`` of
    each column's value joined by commas, ``suffix`` and a line feed."""
    rows = zip(*(c.tolist() for c in columns))
    text = "".join([f"{prefix}{','.join(map(repr, r))}{suffix}\n" for r in rows])
    return text.encode()


class RowFormatter(NamedTuple):
    """``repr_trajectory_rows`` and ``repr_float_rows``, or their C copies."""

    trajectory_rows: Callable
    float_rows: Callable


REPR_ROWS = RowFormatter(repr_trajectory_rows, repr_float_rows)
_REPR_SOURCE = _SOURCE.with_name("_repr.c")
# Row sizes, in bytes, that _repr.c never exceeds.
_REPR_BYTES = 24  # the longest repr of a float: "-2.2250738585072014e-308"
_INT_BYTES = 20  # the longest int64: "-9223372036854775808"
_TRAJECTORY_ROW_BYTES = 3 * _REPR_BYTES + 3
_DIAGNOSTICS_ROW_BYTES = 5 * _REPR_BYTES + _INT_BYTES + 6


def _repr_table() -> str:
    """The C text of ``_repr.c``'s two tables, computed from Python ints:
    ``POW5_INV_SPLIT[q]``, 2^(b + 124) // 5^q + 1 for q < 342, and
    ``POW5_SPLIT[i]``, 5^i scaled to 125 bits, for i < 326, b being the bit
    length of the power of 5; each as {low, high} 64-bit halves."""

    def table(name, values):
        low = (1 << 64) - 1
        rows = ",\n".join(f"    {{{v & low:#x}u, {v >> 64:#x}u}}" for v in values)
        return f"static const uint64_t {name}[][2] = {{\n{rows}\n}};\n"

    inv = [(1 << (5**q).bit_length() + 124) // 5**q + 1 for q in range(342)]
    pos = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    return (
        "#include <stdint.h>\n#define POW5_TABLES\n"
        + table("POW5_INV_SPLIT", inv)
        + table("POW5_SPLIT", pos)
    )


def _c_rows(lib):
    """The ``RowFormatter`` over a loaded ``_repr.c``."""
    trajectory = lib.pempinn_trajectory_rows
    trajectory.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p,
    )
    trajectory.restype = None
    floats = lib.pempinn_float_rows
    floats.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_char_p,
        ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p,
    )
    floats.restype = ctypes.c_int64

    def trajectory_rows_c(arrays, start, stop) -> tuple:
        """``repr_trajectory_rows`` formatted by ``_repr.c``; arrays that
        do not ``_columns_fit`` rows up to ``stop`` go to the repr path."""
        if not (
            isinstance(start, int)
            and isinstance(stop, int)
            and 0 <= start <= stop
            and _columns_fit(arrays, stop)
        ):
            return repr_trajectory_rows(arrays, start, stop)
        rows = stop - start
        traj = ctypes.create_string_buffer(rows * _TRAJECTORY_ROW_BYTES)
        diag = ctypes.create_string_buffer(rows * _DIAGNOSTICS_ROW_BYTES)
        lens = (ctypes.c_int64 * 2)()
        cols = (ctypes.c_void_p * 8)(*(a.ctypes.data for a in arrays))
        trajectory(cols, start, stop, traj, diag, lens)
        return ctypes.string_at(traj, lens[0]), ctypes.string_at(diag, lens[1])

    def float_rows_c(columns, prefix: str, suffix: str) -> bytes:
        """``repr_float_rows`` formatted by ``_repr.c``; columns that are
        not ``_is_column`` float64 arrays go to the repr path."""
        rows = min(map(len, columns), default=0)
        if not (columns and all(_is_column(c, np.float64, rows) for c in columns)):
            return repr_float_rows(columns, prefix, suffix)
        head, tail = prefix.encode(), suffix.encode()
        out = ctypes.create_string_buffer(
            rows * (len(columns) * (_REPR_BYTES + 1) + len(head) + len(tail))
        )
        cols = (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns))
        size = floats(cols, len(columns), rows, head, len(head), tail, len(tail), out)
        return ctypes.string_at(out, size)

    return RowFormatter(trajectory_rows_c, float_rows_c)


def _c_formatter():
    """``_repr.c``'s ``RowFormatter``, or None where it cannot be built or
    loaded."""
    lib = _load(_REPR_SOURCE, _repr_table)
    return None if lib is None else _c_rows(lib)


_CORPUS_ROWS = 340


def _repr_corpus():
    """Eight columns of ``_CORPUS_ROWS`` rows, as ``trajectory_arrays``
    holds them, on which a formatter must write what ``repr`` writes: both
    zeros, NaN and the infinities, the extreme subnormal and normal values,
    the neighbours of both switches to exponent notation and integers
    around 2^53; one double of each binary exponent, so that every table
    entry is read; short decimals over 45 decades; and int64 extremes."""
    edges = [
        0.0, math.nan, math.inf, 5e-324, 2.225073858507201e-308,
        2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e16, 1e15, 0.1,
        1.0, 2.0**53, 2.0**53 + 2, 1e22, 1e23, 1 / 3, 123456789.0, 2.0**-1022,
    ]
    edges += [math.nextafter(x, d) for x in (1e-4, 1e16) for d in (0.0, math.inf)]
    edges += [-x for x in edges]
    # Exponent field e, sign e & 1 and a mantissa of hashed bits.
    e = np.arange(2047, dtype=np.uint64)
    mantissa = (e * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(12)
    per_exponent = ((e & np.uint64(1)) << np.uint64(63) | e << np.uint64(52) | mantissa)
    mantissas = ("1", "2.5", "3.14159", "9.999")
    short = [float(f"{m}e{k}") for m in mantissas for k in range(-22, 23)]
    floats = np.concatenate([edges, per_exponent.view(np.float64), short])
    floats = np.resize(floats, 7 * _CORPUS_ROWS).reshape(7, _CORPUS_ROWS)
    ints = np.resize(np.array([0, 1, -1, 2**63 - 1, -(2**63), 4096]), _CORPUS_ROWS)
    return (*floats, ints.astype(np.int64))


def _same_text(formatter):
    """Whether ``formatter`` writes the bytes of ``REPR_ROWS`` on
    ``_repr_corpus``: whole and part ranges of both trajectory CSVs, and
    float rows with a prefix and a suffix."""
    arrays = _repr_corpus()
    return all(
        getattr(formatter, name)(*args) == getattr(REPR_ROWS, name)(*args)
        for name, args in (
            ("trajectory_rows", (arrays, 0, _CORPUS_ROWS)),
            ("trajectory_rows", (arrays, 100, 101)),
            ("float_rows", ([a[:20] for a in arrays[:3]], "test,", ",0")),
        )
    )


@functools.cache
def _selected_formatter():
    """The ``RowFormatter`` of this process: the C copy where
    ``_c_formatter`` gives one and it writes ``repr``'s bytes on
    ``_repr_corpus``, else ``REPR_ROWS``."""
    formatter = _c_formatter()
    if formatter is not None and _same_text(formatter):
        return formatter
    _fell_back("row formatter", "repr")
    return REPR_ROWS


def get_formatter():
    """The ``RowFormatter`` that writes the CSV rows: ``_repr.c``'s where it
    builds, loads and passes its check, else ``REPR_ROWS``."""
    return _selected_formatter()


def repr_formatter_name():
    """Which ``RowFormatter`` ``get_formatter`` returns in this process: "c"
    or "python"."""
    return "python" if _selected_formatter() is REPR_ROWS else "c"


# -- the dataset CSV parser: _parse.c, or np.loadtxt -----------------------

_PARSE_SOURCE = _SOURCE.with_name("_parse.c")
# The shortest row _parse.c reads: a split, three numbers, three commas and
# a line feed. A file of n bytes holds fewer than n / _MIN_ROW_BYTES rows.
_MIN_ROW_BYTES = len("test,0,0,0\n")


def _parse_table() -> str:
    """The C text of ``_parse.c``'s table ``POW5_128``, computed from
    Python ints as fast_float's generator computes it: for q from -342 to
    308, 5^q as a 128-bit integer with its top bit set (for q >= 0 the
    power shifted and truncated; for q < 0 one more than the floor of a
    power of 2 over 5^-q, truncated to 128 bits), as {high, low} 64-bit
    halves."""
    values = []
    for q in range(-342, 0):
        power = 5**-q
        bits = power.bit_length()
        c = (1 << (bits + 127 if q >= -27 else 2 * bits + 128)) // power + 1
        values.append(c >> max(c.bit_length() - 128, 0))
    for q in range(309):
        shift = 128 - (5**q).bit_length()
        values.append(5**q << shift if shift >= 0 else 5**q >> -shift)
    low = (1 << 64) - 1
    rows = ",\n".join(f"    {{{v >> 64:#x}u, {v & low:#x}u}}" for v in values)
    return (
        "#include <stdint.h>\n#define POW5_128_TABLE\n"
        f"static const uint64_t POW5_128[][2] = {{\n{rows}\n}};\n"
    )


class _RowsOut(ctypes.Structure):
    """``struct rows_out`` of ``_parse.c``."""

    _fields_ = [
        ("columns", ctypes.c_void_p * 6),
        ("capacity", ctypes.c_int64),
        ("rows", ctypes.c_int64 * 2),
    ]


class SplitRows:
    """The rows of one dataset CSV, read by ``_parse.c`` block by block
    into the train and test columns of a ``simulator.Dataset``."""

    def __init__(self, parse, usecols, size):
        """``usecols``: the header positions of the split, t_hours,
        voltage_V and thickness_cm columns; ``size``: the file's size in
        bytes, which bounds its rows."""
        roles = [0] * (max(usecols) + 1)
        for role, col in enumerate(usecols, 1):
            roles[col] = role
        self._parse = parse
        self._roles = (ctypes.c_int8 * len(roles))(*roles)
        capacity = size // _MIN_ROW_BYTES
        # Untouched, and so not resident, past the rows written.
        self._columns = [np.empty(capacity) for _ in range(6)]
        self._out = _RowsOut(
            (ctypes.c_void_p * 6)(*(c.ctypes.data for c in self._columns)), capacity
        )
        self._header = True

    def add(self, block: bytearray, stop: int) -> bool:
        """Read the rows of ``block[:stop]``, whole lines each ending in a
        line feed (the first call's first line is the header); False where
        ``_parse.c`` declines them, after which this object is not used."""
        # _parse.c reads up to a line feed without a bound: the last byte
        # must be one.
        if not 0 < stop <= len(block) or block[stop - 1] != ord("\n"):
            raise ValueError("the rows to parse must end in a line feed")
        text = (ctypes.c_char * stop).from_buffer(block)
        status = self._parse(
            text, stop, self._header, self._roles, len(self._roles), self._out
        )
        self._header = False
        return status == 0

    def columns(self) -> tuple:
        """``(train, test)``: each split's (t_hours, voltage_V, thickness_cm)
        arrays, in file order. Called once, after the last ``add``: it cuts
        the arrays to the rows read."""
        for k, column in enumerate(self._columns):
            column.resize(self._out.rows[k // 3], refcheck=False)
        return tuple(self._columns[:3]), tuple(self._columns[3:])


def _c_parser():
    """A ``SplitRows`` factory, ``(usecols, size) -> SplitRows``, over a
    loaded ``_parse.c``, or None where it cannot be built or loaded."""
    lib = _load(_PARSE_SOURCE, _parse_table)
    if lib is None:
        return None
    parse = lib.pempinn_dataset_rows
    parse.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_int64, ctypes.POINTER(_RowsOut),
    )
    parse.restype = ctypes.c_int64
    return functools.partial(SplitRows, parse)


def _reads_as_float(parser) -> bool:
    """Whether ``parser`` reads the finite values of ``_repr_corpus``,
    written with ``repr`` three to a row in alternating splits, back to
    the same doubles: the bits ``float`` reads from each ``repr``, and so
    those ``np.loadtxt`` reads, which converts each field as ``float``
    does, through ``PyOS_string_to_double``."""
    floats = np.concatenate(_repr_corpus()[:7])
    floats = floats[np.isfinite(floats)]
    floats = floats[: len(floats) // 3 * 3].reshape(-1, 3)
    text = "split,t_hours,voltage_V,thickness_cm,is_noisy\n" + "".join(
        [f"{('train', 'test')[i % 2]},{a!r},{b!r},{c!r},{i % 2}\n"
         for i, (a, b, c) in enumerate(floats.tolist())]
    )
    block = bytearray(text.encode())
    rows = parser((0, 1, 2, 3), len(block))
    if not rows.add(block, len(block)):
        return False
    train, test = rows.columns()
    return (
        np.column_stack(train).tobytes() == floats[0::2].tobytes()
        and np.column_stack(test).tobytes() == floats[1::2].tobytes()
    )


@functools.cache
def _selected_parser():
    """The dataset parser of this process: ``_c_parser``'s factory where it
    gives one and it passes ``_reads_as_float``, else None (np.loadtxt)."""
    parser = _c_parser()
    if parser is not None and _reads_as_float(parser):
        return parser
    _fell_back("dataset parser", "np.loadtxt")
    return None


def get_dataset_parser():
    """The ``SplitRows`` factory that reads dataset CSVs, ``(usecols, size)
    -> SplitRows``, where ``_parse.c`` builds, loads and passes its check;
    else None, and ``simulator.load_dataset`` reads with np.loadtxt."""
    return _selected_parser()


def dataset_parser_name():
    """Which parser ``get_dataset_parser`` selects in this process: "c" or
    "python" (np.loadtxt)."""
    return "python" if _selected_parser() is None else "c"


# -- the physics-residual block: training.residual_block, or _residual.c ---

_RESIDUAL_SOURCE = _SOURCE.with_name("_residual.c")


@functools.cache
def _selected_residual():
    """The residual block of this process: ``_residual.c``'s
    ``CResidualBlock`` where it builds, loads and passes ``same_rows``,
    else ``training.residual_block``. Its glue, ``_residual.py``, is
    imported here, so that no command start-up compiles it."""
    from . import _residual, training

    block = _residual.c_block()
    if block is not None and _residual.same_rows(block):
        return block
    _fell_back("residual block", "numpy")
    return training.residual_block


def get_residual_block():
    """The block that ``training.composite_loss`` runs for the physics
    residuals, selected on the first call."""
    return _selected_residual()


def residual_kernel_name():
    """Which block ``get_residual_block`` returns in this process: "c" or
    "python"."""
    from .training import residual_block

    return "python" if _selected_residual() is residual_block else "c"


def _fell_back(name: str, instead: str) -> None:
    """Say on stderr that the C ``name`` did not build, load or pass its
    check and that ``instead`` runs; each selector, cached, calls this at
    most once per process."""
    print(
        f"pempinn: the C {name} did not build, load or pass its check; "
        f"using {instead} (same output, slower)",
        file=sys.stderr,
    )
