"""Plain-numpy definitions of the network forward pass and the two physics
residuals, the oracle the package's closed-form code is pinned to.

Each function here runs unchanged on real and on complex arrays, so
``complex_step.py`` differentiates it: every comparison and mask reads the
real part, and the clamps are ``where(real(x) > floor, x, floor)`` with the
strict ``>`` production uses, so a clamped entry carries no derivative. On
real input they give the bits the tests pin production's forward pass and
root selection to. The arithmetic-only helpers of :mod:`pempinn.degradation`
(``water_velocity``, ``peroxide_quadratic_coefficients``,
``thinning_rate``) are analytic as they stand and are used from there.
"""

import numpy as np

from pempinn.constants import K5_SCALE
from pempinn.degradation import (
    peroxide_quadratic_coefficients,
    thinning_rate,
    water_velocity,
)
from pempinn.training import CLAMP_EPS

# -- network -------------------------------------------------------------------


def sigmoid(z):
    """Logistic function: the analytic 1/(1 + exp(-z)) on complex input,
    the overflow-safe form on real input."""
    if np.iscomplexobj(z):
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def mlp_forward(weights, biases, tau):
    """Outputs and their tau-derivatives, ``(y, dy)``, as ``(n_out, N)``
    blocks at the points of ``tau`` (a float or a 1-d array); sigmoid
    hidden layers, affine output layer.

    The tangent recursion is sigma(z)' = s (1 - s) z', seeded with
    d(tau)/d(tau) = 1; it is analytic in the parameters, so a complex step
    in a weight differentiates ``dy`` too.
    """
    a = np.reshape(tau, (1, -1))
    da = np.ones_like(a)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = w @ a + np.reshape(b, (-1, 1))
        dz = w @ da
        if layer < last:
            a = sigmoid(z)
            da = dz * (a * (1.0 - a))
        else:
            a, da = z, dz
    return a, da


# -- radical chemistry ---------------------------------------------------------


def solve_peroxide_selected(a, b, c):
    """Smallest strictly positive root of A c^2 + B c + C = 0 and its
    feasibility mask, selected on the real parts; the selected root keeps
    the imaginary part of its closed form. Infeasible entries hold 1.0."""
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    pb = np.real(b)

    lin_mask = np.real(a) == 0.0
    lin_root = -c / np.where(pb != 0.0, b, 1.0)
    lin_feas = lin_mask & (pb != 0.0) & (np.real(lin_root) > 0.0)

    disc = b * b - 4.0 * a * c
    disc_ok = np.real(disc) >= 0.0
    sq = np.sqrt(np.where(disc_ok, disc, 0.0))
    q = np.where(pb >= 0.0, -(b + sq), -(b - sq)) * 0.5
    pq = np.real(q)
    r1 = q / np.where(lin_mask, 1.0, a)
    r2 = np.where(pq != 0.0, c / np.where(pq != 0.0, q, 1.0), r1)
    p1, p2 = np.real(r1), np.real(r2)
    pos1 = disc_ok & (p1 > 0.0) & ~lin_mask
    pos2 = disc_ok & (p2 > 0.0) & ~lin_mask
    pick1 = pos1 & (~pos2 | (p1 <= p2))
    quad_root = np.where(pick1, r1, np.where(pos2, r2, 1.0))

    root = np.where(lin_mask, np.where(lin_feas, lin_root, 1.0), quad_root)
    return root, lin_feas | pos1 | pos2


def hydroxyl_chain(params, cond, v, k5=None, diag=None):
    """Full chain V -> c_HO, with infeasible chemistry and a negative
    hydroxyl formula value both masked to zero and counted in ``diag``."""
    a, b, c = peroxide_quadratic_coefficients(params, cond, v, k5=k5)
    root, feasible = solve_peroxide_selected(a, b, c)
    if diag is not None:
        diag.count("chemistry_infeasible", np.sum(~feasible))
    w = water_velocity(params, cond, v) / params.e_cl
    raw = w / params.k3 - params.k2 / params.k3 - params.v1 / (params.k3 * root)
    raw_positive = np.real(raw) > 0.0
    if diag is not None:
        diag.count("hydroxyl_clamped", np.sum(feasible & ~raw_positive))
    return np.where(feasible & raw_positive, raw, 0.0)


# -- residuals -----------------------------------------------------------------


def _clamped_physical(y_v, y_m, v_ref, t_ref, diag=None):
    """Physical V and t_mem from normalized outputs, with floored denominators."""
    if diag is not None:
        diag.count("output_clamped", np.sum(np.real(y_v) <= CLAMP_EPS))
        diag.count("output_clamped", np.sum(np.real(y_m) <= CLAMP_EPS))
    v = v_ref * np.where(np.real(y_v) > CLAMP_EPS, y_v, CLAMP_EPS)
    tm = t_ref * np.where(np.real(y_m) > CLAMP_EPS, y_m, CLAMP_EPS)
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
    concentration -> attack rate, all analytic (the quadratic root in
    closed form); infeasible chemistry contributes zero attack.
    """
    v, tm = _clamped_physical(y_v, y_m, v_ref, t_ref, diag)
    k5 = k5_hat * K5_SCALE
    c_ho = hydroxyl_chain(params, cond, v, k5=k5, diag=diag)
    tr = thinning_rate(params, c_ho, tm, k5=k5)
    return dym_dtau + (t_max / t_ref) * tr
