"""Generic definitions of the network forward pass and the two physics
residuals, the oracle the package's plain-array code is pinned to.

Each function here runs unchanged on floats, numpy arrays and the
``Dual``/``Value`` numbers of :mod:`pempinn.autodiff`, through its
``where``/``sqrt``/``maximum``/``matmul``/``sigmoid``/``primal``
front-ends. Evaluated on ``Dual`` numbers they give the derivatives that
``training.residual_partials`` and ``degradation.hydroxyl_chain_partials``
write in closed form, and on ``Value`` leaves (with
:class:`~pempinn.network.LiftedParameters`) they build the graph of the
reverse-mode reference loss in ``reference_loss.py``. The arithmetic-only
helpers of :mod:`pempinn.degradation` (``water_velocity``,
``peroxide_quadratic_coefficients``, ``thinning_rate``) are generic as
they stand and are used from there.
"""

import numpy as np

from pempinn.autodiff import Dual, Value, matmul, maximum, primal, sigmoid, sqrt, where
from pempinn.constants import K5_SCALE
from pempinn.degradation import (
    peroxide_quadratic_coefficients,
    thinning_rate,
    water_velocity,
)
from pempinn.training import CLAMP_EPS

# -- network -------------------------------------------------------------------


def mlp_forward(weights, biases, x):
    """Forward pass; sigmoid hidden layers, affine output layer.

    ``x`` is a float or a 1-d array of points (or a Dual of either); it is
    laid out as one ``(1, N)`` row and each layer maps ``(fan_in, N)`` to
    ``(fan_out, N)``. Returns one output per network output, each in the
    shape of ``x``. Bias leaves of LiftedParameters are ``(n, 1)`` columns
    already; plain ``(n,)`` biases are reshaped to columns here.
    """
    a = _as_row(x)
    cols = slice(None) if np.ndim(primal(x)) else 0
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = matmul(w, a) + (b if isinstance(b, Value) else np.reshape(b, (-1, 1)))
        if layer < last:
            a = sigmoid(a)
    return [a[i, cols] for i in range(np.shape(primal(weights[-1]))[0])]


def _as_row(x):
    if isinstance(x, Dual):
        p = np.reshape(x.primal, (1, -1))
        return Dual(p, np.broadcast_to(x.tangent, p.shape))
    return np.reshape(x, (1, -1))


# -- radical chemistry ---------------------------------------------------------


def solve_peroxide_selected(a, b, c):
    """Smallest strictly positive root of A c^2 + B c + C = 0 and its
    feasibility mask, selected on the primals; the selected root carries
    the tangent of its closed form. Infeasible entries hold 1.0."""
    pa = np.asarray(primal(a))
    pb = np.asarray(primal(b))

    lin_mask = pa == 0.0
    b_safe = where(pb != 0.0, b, 1.0)
    lin_root = -c / b_safe
    lin_feas = lin_mask & (pb != 0.0) & (np.asarray(primal(lin_root)) > 0.0)

    disc = b * b - 4.0 * a * c
    disc_ok = np.asarray(primal(disc)) >= 0.0
    sq = sqrt(where(disc_ok, disc, 0.0))
    q = where(pb >= 0.0, -(b + sq), -(b - sq)) * 0.5
    pq = np.asarray(primal(q))
    a_safe = where(lin_mask, 1.0, a)
    q_safe = where(pq != 0.0, q, 1.0)
    r1 = q / a_safe
    r2 = where(pq != 0.0, c / q_safe, r1)
    p1 = np.asarray(primal(r1))
    p2 = np.asarray(primal(r2))
    pos1 = disc_ok & (p1 > 0.0) & ~lin_mask
    pos2 = disc_ok & (p2 > 0.0) & ~lin_mask
    pick1 = pos1 & (~pos2 | (p1 <= p2))
    quad_root = where(pick1, r1, where(pos2, r2, 1.0))
    quad_feas = pos1 | pos2

    root = where(lin_mask, where(lin_feas, lin_root, 1.0), quad_root)
    feasible = np.asarray(lin_feas | quad_feas)
    return root, feasible


def hydroxyl_chain(params, cond, v, k5=None, diag=None):
    """Full chain V -> c_HO, with infeasible chemistry and a negative
    hydroxyl formula value both masked to zero and counted in ``diag``."""
    a, b, c = peroxide_quadratic_coefficients(params, cond, v, k5=k5)
    root, feasible = solve_peroxide_selected(a, b, c)
    if diag is not None:
        diag.count("chemistry_infeasible", np.sum(~feasible))
    w = water_velocity(params, cond, v) / params.e_cl
    raw = w / params.k3 - params.k2 / params.k3 - params.v1 / (params.k3 * root)
    raw_positive = np.asarray(primal(raw)) > 0.0
    if diag is not None:
        diag.count("hydroxyl_clamped", np.sum(feasible & ~raw_positive))
    return where(feasible & raw_positive, raw, 0.0)


# -- residuals -----------------------------------------------------------------


def _clamped_physical(y_v, y_m, v_ref, t_ref, diag=None):
    """Physical V and t_mem from normalized outputs, with floored denominators."""
    if diag is not None:
        diag.count("output_clamped", np.sum(np.asarray(primal(y_v)) <= CLAMP_EPS))
        diag.count("output_clamped", np.sum(np.asarray(primal(y_m)) <= CLAMP_EPS))
    v = v_ref * maximum(y_v, CLAMP_EPS)
    tm = t_ref * maximum(y_m, CLAMP_EPS)
    return v, tm


def voltage_residual_terms(
    y_v, y_m, dyv_dtau, dym_dtau, coeffs, v_ref, t_ref, diag=None,
):
    """Nondimensional voltage-evolution residual from normalized outputs.

    r = y_v' * [1 + k2V/V + k3V*(P/A)/(t_mem*V^2)]
        + k3V*(P/A)/(V*t_mem^2) * (t_ref/v_ref) * y_m'

    where y' are derivatives with respect to tau = t/t_max. Zero exactly
    when the predicted pair satisfies the differentiated voltage equation.
    """
    v, tm = _clamped_physical(y_v, y_m, v_ref, t_ref, diag)
    pa = coeffs.P_over_A
    bracket = 1.0 + coeffs.k2V / v + coeffs.k3V * pa / (tm * v * v)
    cross = coeffs.k3V * pa / (v * tm * tm) * (t_ref / v_ref)
    return dyv_dtau * bracket + cross * dym_dtau


def thinning_residual_terms(
    y_v, y_m, dym_dtau, k5_hat, params, cond, v_ref, t_ref, t_max, diag=None,
):
    """Nondimensional thinning-law residual, r = y_m' + (t_max/t_ref)*TR.

    TR chains voltage -> water velocity -> peroxide quadratic -> hydroxyl
    concentration -> attack rate, all differentiable (the quadratic root in
    closed form); infeasible chemistry contributes zero attack.
    """
    v, tm = _clamped_physical(y_v, y_m, v_ref, t_ref, diag)
    k5 = k5_hat * K5_SCALE
    c_ho = hydroxyl_chain(params, cond, v, k5=k5, diag=diag)
    tr = thinning_rate(params, c_ho, tm, k5=k5)
    return dym_dtau + (t_max / t_ref) * tr
