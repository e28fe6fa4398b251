"""Cell voltage model.

Decomposition V = V_oc + V_act + V_ohm with a Nernst open-circuit term,
Butler-Volmer activation kinetics at both electrodes, and an ohmic loss
through the membrane whose conductivity degrades as the membrane thins.
Under constant electrical power the current density is i = P/(A*V), which
turns the decomposition into an implicit scalar equation

    V = k1V + k2V*ln(P/(A*V)) + k3V*(1/t_mem)*(P/(A*V))

solved here with a safeguarded Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernel
from .constants import OperatingConditions, PhysicsParameters
from .errors import NumericalError

__all__ = [
    "VoltageCoefficients",
    "open_circuit_voltage",
    "activation_overpotential",
    "ohmic_overpotential",
    "membrane_conductivity",
    "degraded_conductivity",
    "voltage_coefficients",
    "solve_cell_voltage",
    "voltage_solve_error",
]


@dataclass(frozen=True)
class VoltageCoefficients:
    """Constants of the reduced implicit voltage equation.

    k1V collects the open-circuit and exchange-current terms (V), k2V scales
    the ln(i) kinetic term (V), and k3V = (t_mem0)^2 / sigma scales the
    degradation-aware ohmic term so that k3V*i/t_mem is in volts.
    """

    k1V: float
    k2V: float
    k3V: float
    P_over_A: float


def open_circuit_voltage(params: PhysicsParameters, cond: OperatingConditions) -> float:
    """Nernst open-circuit voltage, V_oc = E0 + (RT/2F) ln(p_H2 sqrt(p_O2) / p_H2O)."""
    ratio = cond.p_H2 * math.sqrt(cond.p_O2) / cond.p_H2O
    return params.E0 + params.R * cond.T / (2.0 * params.F) * math.log(ratio)


def activation_overpotential(
    params: PhysicsParameters, cond: OperatingConditions, i: float
) -> float:
    """Butler-Volmer kinetic losses of both electrodes (logarithmic form).

    Negative values are legitimate for i below the exchange current
    densities; i must be positive.
    """
    rt_f = params.R * cond.T / params.F
    return rt_f / params.alpha_an * math.log(i / params.i0_an) + (
        rt_f / params.alpha_cat * math.log(i / params.i0_cat)
    )


def membrane_conductivity(lambda_hydration: float, T: float) -> float:
    """Empirical membrane conductivity, S/cm.

    sigma = (0.005139*lambda - 0.00326) * exp(1268*(1/303 - 1/T))

    Positive for every ``lambda_hydration`` that ``PhysicsParameters`` accepts.
    """
    return (0.005139 * lambda_hydration - 0.00326) * math.exp(
        1268.0 * (1.0 / 303.0 - 1.0 / T)
    )


def degraded_conductivity(sigma: float, t_mem: float, t_mem0: float) -> float:
    """Conductivity after thinning: sigma' = (t_mem/t_mem0)^2 * sigma."""
    ratio = t_mem / t_mem0
    return ratio * ratio * sigma


def ohmic_overpotential(sigma_degraded: float, t_mem: float, i: float) -> float:
    """Resistive loss V_ohm = (t_mem / sigma') * i."""
    return t_mem / sigma_degraded * i


def voltage_coefficients(
    params: PhysicsParameters, cond: OperatingConditions
) -> VoltageCoefficients:
    """Fold the decomposition into the reduced equation's constants.

    Uses the general two-coefficient form of the kinetic terms; with
    alpha_an = alpha_cat = alpha it reduces to k2V = 2RT/(alpha F) and the
    usual ln(1/(i0_an*i0_cat)) contribution to k1V.
    """
    rt_f = params.R * cond.T / params.F
    nernst = open_circuit_voltage(params, cond)
    exchange = rt_f / params.alpha_an * math.log(1.0 / params.i0_an) + (
        rt_f / params.alpha_cat * math.log(1.0 / params.i0_cat)
    )
    k2v = rt_f * (1.0 / params.alpha_an + 1.0 / params.alpha_cat)
    sigma = membrane_conductivity(params.lambda_hydration, cond.T)
    k3v = cond.t_mem0 * cond.t_mem0 / sigma
    return VoltageCoefficients(
        k1V=nernst + exchange,
        k2V=k2v,
        k3V=k3v,
        P_over_A=cond.P / cond.A_cell,
    )


def solve_cell_voltage(coeffs: VoltageCoefficients, t_mem: float) -> float:
    """Solve the implicit reduced voltage equation for a given thickness
    ``t_mem`` > 0.

    Deterministic; Newton starts at ``_kernel.V_GUESS``, and the returned V
    satisfies |V - RHS(V)| <= ``_kernel.V_TOL``, well below 1e-10 V.
    """
    v, _, status = _kernel.solve_voltage(
        coeffs.k1V,
        coeffs.k2V,
        coeffs.k3V,
        coeffs.P_over_A,
        t_mem,
        _kernel.V_GUESS,
    )
    if status:
        raise voltage_solve_error(status, coeffs, f"t_mem = {t_mem} cm")
    return v


def voltage_solve_error(
    status: int, coeffs: VoltageCoefficients, where: str
) -> NumericalError:
    """The error for a ``_kernel`` voltage solve that returned ``status`` 1
    (no sign change on the bracket) or 2 (no convergence); ``where`` names
    the thickness it ran at, and the message names the coefficients."""
    if status == 1:
        cause = f"has no sign change on [{_kernel.V_BRACKET_LO}, {_kernel.V_BRACKET_HI}] V"
    else:
        cause = f"did not converge in {_kernel.V_MAX_ITER} Newton iterations"
    return NumericalError(
        f"voltage equation {cause} at {where} (k1V={coeffs.k1V}, "
        f"k2V={coeffs.k2V}, k3V={coeffs.k3V}, P/A={coeffs.P_over_A})"
    )
