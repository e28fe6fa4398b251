"""Radical chemistry steady state and membrane attack rates.

The chain evaluated at a cell voltage V: water velocity -> peroxide
quadratic -> hydroxyl concentration -> fluoride release -> thinning rate.

Everything here runs on plain floats and numpy arrays. The chain from V to
c_HO has one implementation: :func:`hydroxyl_chain_partials`, built on
:func:`peroxide_quadratic_coefficients` and :func:`solve_peroxide_selected`,
gives c_HO and its partials in V and k5 at every voltage of an array, and
masks and counts infeasible chemistry instead of raising. Training's numpy
residual block runs it; the tests pin it to complex-step derivatives of a
plain-numpy copy of the chain (``tests/reference_physics.py``). The fused
RK4 kernel (``_kernel``) and the C residual block (``_residual.c``) keep
their own inline copies for speed, which the tests pin bit for bit to a
per-stage reference and to this function.

Unit notes: concentrations mol/m3, rates mol/(m3 s), thickness cm, fluoride
release ug/(h cm2), thinning rate cm/h. The composed conversion factor in
the thinning chain is 3600 * 1e-6 * 1e6 * 1e-6 = 3.6e-3 (seconds per hour,
m3 per cm3, ug per g, g per ug).
"""

from __future__ import annotations

import numpy as np

from .constants import (
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
)

__all__ = [
    "DiagnosticCounters",
    "water_velocity",
    "peroxide_quadratic_coefficients",
    "solve_peroxide_selected",
    "hydroxyl_chain_partials",
    "fluoride_release_rate",
    "thinning_per_fluoride",
    "thinning_rate",
]


class DiagnosticCounters:
    """Counts clamp and infeasibility events so regime changes are visible."""

    def __init__(self):
        self.hydroxyl_clamped = 0
        self.chemistry_infeasible = 0
        self.output_clamped = 0

    def count(self, name, n):
        setattr(self, name, getattr(self, name) + int(n))


def water_velocity(
    params: PhysicsParameters, cond: OperatingConditions, v
):
    """Closure for the water velocity, m/s, proportional to current density.

    v_H2O = kappa_w * i with i = P/(A*V); strictly decreasing in V.
    """
    i = cond.P / (cond.A_cell * v)
    return params.kappa_w * i


def peroxide_quadratic_coefficients(
    params: PhysicsParameters, cond: OperatingConditions, v, k5
):
    """``(A, B, C, w, s)``: the coefficients of A*c^2 + B*c + C = 0 for
    c = c_H2O2, with the w and s they are built from.

    With w = v_H2O/e_cl and s = k4*c_O2 + k5*C_mem - w:
        A = -3*k2 + w
        B = s*(w - k2)/k3 - v1
        C = -s*v1/k3
    """
    w = water_velocity(params, cond, v) / params.e_cl
    c_mem = membrane_molar_concentration(params)
    s = params.k4 * params.c_O2 + k5 * c_mem - w
    a = w - 3.0 * params.k2
    b = s * (w - params.k2) / params.k3 - params.v1
    c = -s * params.v1 / params.k3
    return a, b, c, w, s


def solve_peroxide_selected(a, b, c):
    """Smallest strictly positive root of the quadratic, with feasibility mask.

    Uses the sign-aware stable formula (q = -(B + sign(B)*sqrt(disc))/2,
    roots q/A and C/q) so the small root survives catastrophic cancellation.
    Falls back to the linear root when A == 0. Returns (root, feasible);
    where infeasible, the root entry holds a placeholder 1.0 so downstream
    safe divisions stay finite.
    """
    # As arrays, so the masks below are numpy booleans whose ~ is a logical
    # not also for scalar coefficients.
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    lin_mask = a == 0.0
    disc = b * b - 4.0 * a * c
    disc_ok = disc >= 0.0
    quad_ok = disc_ok & ~lin_mask
    sq = np.sqrt(np.where(disc_ok, disc, 0.0))
    q = (b + np.where(b >= 0.0, sq, -sq)) * -0.5
    r1 = q / np.where(lin_mask, 1.0, a)
    q_ok = q != 0.0
    r2 = np.where(q_ok, c / np.where(q_ok, q, 1.0), r1)
    pos1 = quad_ok & (r1 > 0.0)
    pos2 = quad_ok & (r2 > 0.0)
    pick1 = pos1 & (~pos2 | (r1 <= r2))
    quad_root = np.where(pick1, r1, np.where(pos2, r2, 1.0))
    if not lin_mask.any():  # no linear entry to splice in
        return quad_root, pos1 | pos2

    lin_root = -c / np.where(b != 0.0, b, 1.0)
    lin_feas = lin_mask & (b != 0.0) & (lin_root > 0.0)
    root = np.where(lin_mask, np.where(lin_feas, lin_root, 1.0), quad_root)
    return root, lin_feas | pos1 | pos2


def hydroxyl_chain_partials(
    params: PhysicsParameters,
    cond: OperatingConditions,
    v: np.ndarray,
    k5: float,
    diag: DiagnosticCounters | None = None,
):
    """Full chain V -> c_HO at every point of ``v``, with dc_HO/dV and
    dc_HO/dk5.

    Infeasible chemistry (no positive peroxide root) and a negative
    hydroxyl formula value both give c_HO = 0 with zero partials; they are
    masked, never raised, and counted in ``diag`` as chemistry_infeasible
    and hydroxyl_clamped.

    The peroxide root r is differentiated implicitly through its quadratic
    A r^2 + B r + C = 0: dr = -(dA r^2 + dB r + dC) / (2 A r + B).
    """
    a, b, c, w, s = peroxide_quadratic_coefficients(params, cond, v, k5)
    root, feasible = solve_peroxide_selected(a, b, c)
    k2, k3, v1 = params.k2, params.k3, params.v1
    raw = w / k3 - k2 / k3 - v1 / (k3 * root)
    positive = feasible & (raw > 0.0)
    if diag is not None:
        n_feasible = np.count_nonzero(feasible)
        diag.count("chemistry_infeasible", feasible.size - n_feasible)
        diag.count("hydroxyl_clamped", n_feasible - np.count_nonzero(positive))
    c_mem = membrane_molar_concentration(params)
    # w = kappa_w P / (A V e_cl) falls as 1/V; k5 enters only through
    # s = k4 c_O2 + k5 C_mem - w, and A = w - 3 k2, B = s (w - k2)/k3 - v1,
    # C = -s v1/k3.
    dw_dv = -w / v
    r2 = root * root
    inv_slope = -1.0 / np.where(positive, 2.0 * a * root + b, 1.0)
    dr_dv = (r2 + (s - w + k2) / k3 * root + v1 / k3) * dw_dv * inv_slope
    dr_dk5 = (c_mem / k3) * ((w - k2) * root - v1) * inv_slope
    # c_HO = w/k3 - k2/k3 - v1/(k3 r).
    dc_dr = v1 / (k3 * r2)
    return (
        np.where(positive, raw, 0.0),
        np.where(positive, dw_dv / k3 + dc_dr * dr_dv, 0.0),
        np.where(positive, dc_dr * dr_dk5, 0.0),
    )


def fluoride_release_rate(params: PhysicsParameters, c_ho, t_mem, k5=None):
    """Fluoride release rate, ug/(h cm2).

    FRR = 3.6 * k5 * c_HO * C_mem * MM_F * t_mem * 3600 * 1e-6 * 1e6
    (t_mem in cm; the stoichiometric 3.6 converts radical attack events to
    fluoride release).
    """
    if k5 is None:
        k5 = params.k5_true
    c_mem = membrane_molar_concentration(params)
    return (
        params.fluoride_stoich
        * k5
        * c_ho
        * c_mem
        * params.MM_F
        * t_mem
        * 3600.0
        * 1.0e-6
        * 1.0e6
    )


def thinning_per_fluoride(params: PhysicsParameters) -> float:
    """Thinning rate per unit fluoride release rate, (cm/h)/(ug/(h cm2)):
    1e-6 / (rho_Naf * 0.82)."""
    return 1.0e-6 / (params.rho_naf_cgs * params.fluorine_mass_fraction)


def thinning_rate(params: PhysicsParameters, c_ho, t_mem, k5=None):
    """Thinning rate, cm/h: TR = FRR / (rho_Naf * 0.82) * 1e-6.

    Composed from the fluoride release rate so the definitional identity
    between the two holds exactly. dt_mem/dt = -TR.
    """
    frr = fluoride_release_rate(params, c_ho, t_mem, k5=k5)
    return frr * thinning_per_fluoride(params)
