"""``training.residual_block`` run by ``_residual.c``, and its check.

``_kernel.get_residual_block`` imports this module on the first PINN
epoch of a process, builds ``_residual.c`` through ``_kernel._load``, and
selects its ``CResidualBlock`` where ``same_rows`` holds, else
``training.residual_block``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import replace

import numpy as np

from . import _kernel, training
from .constants import (
    K5_SCALE,
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
)
from .degradation import DiagnosticCounters, thinning_per_fluoride, thinning_rate
from .electrochem import voltage_coefficients

# The DiagnosticCounters that the block counts, in its order.
COUNTS = ("output_clamped", "chemistry_infeasible", "hydroxyl_clamped")


class _Args(ctypes.Structure):
    """``struct residual_args`` of ``_residual.c``."""

    _fields_ = [
        ("n_c", ctypes.c_int64),
        ("stride", ctypes.c_int64),
        *[(name, ctypes.c_void_p) for name in ("y", "dy", "g_y", "g_dy", "work")],
        *[(name, ctypes.c_double) for name in (
            "clamp_eps", "v_ref", "t_ref", "k2v", "k3v_pa", "t_over_v",
            "p", "a_cell", "kappa_w", "e_cl", "kc", "k2_3", "k2", "k3", "v1",
            "k2_k3", "v1_k3", "c_mem_k3",
            "k5", "stoich_k5", "c_mem", "mm_f", "per_fluoride", "scale",
            "rate_k5", "rate_k5_scale", "cv_coef", "cm_coef",
        )],
    ]


class _Counts(ctypes.Structure):
    """``struct residual_counts`` of ``_residual.c``."""

    _fields_ = [(name, ctypes.c_int64) for name in COUNTS]


def _is_block(a, shape) -> bool:
    """Whether ``a`` is a writable, C-contiguous float64 array of ``shape``
    in native byte order."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.shape == shape
        and a.flags.c_contiguous
        and a.flags.writeable
    )


class CResidualBlock:
    """``training.residual_block`` over ``run``, the block of a loaded
    ``_residual.c``: the same arguments and results, counters included.
    ``rows`` is the C block alone."""

    def __init__(self, run):
        self._run = run

    def rows(
        self, y, dy, n_c, k5_hat, v_ref, t_ref, config, coeffs, params, cond,
        g_y, g_dy,
    ):
        """Write the collocation columns of the gradient rows as
        ``residual_block`` does, and return ``(work, counts)``: the three
        rows it sums, as one ``(3, n_c)`` array, and the ``COUNTS``.

        None, with nothing written, where ``y``, ``dy``, ``g_y`` and
        ``g_dy`` are not all ``_is_block`` of one ``(2, N)`` shape with
        ``0 < n_c <= N``; None, with the rows to be discarded, where a
        float operation divided by zero, overflowed or was invalid.
        """
        shape = getattr(y, "shape", None)
        if not (
            shape is not None
            and len(shape) == 2
            and shape[0] == 2
            and 0 < n_c <= shape[1]
            and all(_is_block(a, shape) for a in (y, dy, g_y, g_dy))
        ):
            return None
        # The scalars of residual_partials and residual_block, with the
        # same operands in the same order.
        k5 = k5_hat * K5_SCALE
        c_mem = membrane_molar_concentration(params)
        scale = cond.t_max / t_ref
        rate = scale * thinning_rate(params, 1.0, 1.0, k5=1.0)
        k2, k3, v1 = params.k2, params.k3, params.v1
        work = np.empty((3, n_c))
        args = _Args(
            n_c, shape[1], y.ctypes.data, dy.ctypes.data, g_y.ctypes.data,
            g_dy.ctypes.data, work.ctypes.data,
            training.CLAMP_EPS, v_ref, t_ref, coeffs.k2V,
            coeffs.k3V * coeffs.P_over_A, t_ref / v_ref,
            cond.P, cond.A_cell, params.kappa_w, params.e_cl,
            params.k4 * params.c_O2 + k5 * c_mem, 3.0 * k2, k2, k3, v1,
            k2 / k3, v1 / k3, c_mem / k3,
            k5, params.fluoride_stoich * k5, c_mem, params.MM_F,
            thinning_per_fluoride(params), scale, rate * k5, rate * K5_SCALE,
            2.0 * config.lambda_v / n_c, 2.0 * config.lambda_tmem / n_c,
        )
        counts = _Counts()
        if self._run(args, counts):
            return None
        return work, tuple(getattr(counts, name) for name in COUNTS)

    def __call__(
        self, y, dy, n_c, k5_hat, v_ref, t_ref, config, coeffs, params, cond,
        g_y, g_dy, diag=None,
    ):
        """``training.residual_block``: from the C block's rows where
        ``rows`` gives them, else by ``residual_block`` itself, which then
        warns or raises as it always has."""
        args = (y, dy, n_c, k5_hat, v_ref, t_ref, config, coeffs, params, cond)
        out = self.rows(*args, g_y, g_dy)
        if out is None:
            return training.residual_block(*args, g_y, g_dy, diag)
        work, counts = out
        if diag is not None:
            for name, n in zip(COUNTS, counts):
                diag.count(name, n)
        rv2, rm2, k5_terms = work
        return (
            config.lambda_v * training._mean(rv2),
            config.lambda_tmem * training._mean(rm2),
            float(np.add.reduce(k5_terms)),
            work,
        )


def c_block():
    """The ``CResidualBlock`` of ``_residual.c``, built and loaded, or None
    where it cannot be built or loaded."""
    lib = _kernel._load(_kernel._RESIDUAL_SOURCE)
    if lib is None:
        return None
    run = lib.pempinn_residual_block
    run.argtypes = (ctypes.POINTER(_Args), ctypes.POINTER(_Counts))
    run.restype = ctypes.c_int64
    return CResidualBlock(run)


def check_cases():
    """``(y, dy, n_c, k5_hat, v_ref, t_ref, config, coeffs, params, cond)``
    cases on which the C block must write numpy's rows: one fixed block of
    24 columns, 20 of them collocation columns, with outputs below the
    floor, at it and NaN, and voltages so high that the chemistry is
    infeasible; under the packaged physics at k5_hat 1.0 and at -1.0, which
    clamps the hydroxyl, and under physics whose peroxide quadratic has
    a == 0 exactly at y_v = 1.0."""
    y_v = [1.0, 0.55, 0.6, 0.62, 0.7, 0.9, 1.2, 1.5, 3.0, 0.05, 0.1, math.nan,
           -2.0, 4e5, 2e6, 0.58, 0.75, 1.05, 0.66, 0.8]
    y_m = [1.0, 0.9, 0.1, math.nan, 0.05, -1.0, 0.5, 0.2, 1.3, 0.95, 0.85, 0.7,
           0.6, 0.9, 0.8, 0.4, 1e-3, 2.0, 0.75, 0.65]
    extra = [7.0, -7.0, 0.0, 3.0]  # past n_c: read by neither block
    y = np.array([y_v + extra, y_m + extra])
    dy = np.array([
        np.linspace(-0.3, 0.4, 24),
        np.linspace(-0.8, 0.1, 24) * (-1.0) ** np.arange(24),
    ])
    # Residuals of -0.0 at k5_hat -1.0, whose signs only the products
    # cm * 0.0 and cv * 0.0 keep.
    dy[:, 3] = -0.0
    config = training.TrainingConfig(lambda_v=1.0, lambda_tmem=0.5, n_collocation=20)
    packaged = PhysicsParameters(), OperatingConditions()
    # w = kappa_w (P / (A_cell V)) / e_cl = 3 = 3 k2 at V = 2.
    exact = (
        replace(packaged[0], k2=1.0, kappa_w=3.0, e_cl=1.0),
        replace(packaged[1], P=1000.0, A_cell=500.0),
    )
    return [
        (y, dy, 20, k5_hat, 2.0, 0.0175, config, voltage_coefficients(*physics),
         *physics)
        for physics, k5_hat in ((packaged, 1.0), (packaged, -1.0), (exact, 0.5))
    ]


def same_rows(block) -> bool:
    """Whether ``block.rows`` writes the bytes of ``training.residual_block``
    on ``check_cases``: every gradient and work row, and the counts."""
    for case in check_cases():
        y = case[0]
        g_c = np.zeros_like(y), np.zeros_like(y)
        g_numpy = np.zeros_like(y), np.zeros_like(y)
        out = block.rows(*case, *g_c)
        if out is None:
            return False
        diag = DiagnosticCounters()
        with np.errstate(all="ignore"):
            *_, rows = training.residual_block(*case, *g_numpy, diag)
        work, counts = out
        if not (
            [a.tobytes() for a in (*g_c, *work)]
            == [a.tobytes() for a in (*g_numpy, *rows)]
            and counts == tuple(getattr(diag, name) for name in COUNTS)
        ):
            return False
    return True
