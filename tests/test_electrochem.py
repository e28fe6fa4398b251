import math

import numpy as np
import pytest

from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.electrochem import (
    VoltageCoefficients,
    activation_overpotential,
    degraded_conductivity,
    membrane_conductivity,
    ohmic_overpotential,
    open_circuit_voltage,
    solve_cell_voltage,
    voltage_coefficients,
)
from pempinn.errors import ConfigError, NumericalError


def test_open_circuit_unit_pressures(params):
    cond = OperatingConditions(p_H2=1.0, p_O2=1.0, p_H2O=1.0)
    assert open_circuit_voltage(params, cond) == pytest.approx(1.23, rel=1e-15)


def test_open_circuit_cancelling_ratio(params):
    # p_H2 * sqrt(p_O2) == p_H2O makes the logarithm vanish at any T.
    cond = OperatingConditions(T=353.0, p_H2=4.0, p_O2=0.25, p_H2O=2.0)
    assert open_circuit_voltage(params, cond) == pytest.approx(params.E0, rel=1e-15)


def test_open_circuit_golden(params, cond):
    # Independent scalar evaluation of the Nernst formula.
    expected = 1.23 + 8.314 * cond.T / (2 * 96485.0) * math.log(
        30.0 * math.sqrt(1.0) / cond.p_H2O
    )
    assert open_circuit_voltage(params, cond) == pytest.approx(expected, rel=1e-14)
    assert open_circuit_voltage(params, cond) == pytest.approx(
        1.3110932490138703, rel=1e-12
    )


def test_activation_zero_at_exchange_current(cond):
    p = PhysicsParameters(i0_an=0.01, i0_cat=0.01)
    assert activation_overpotential(p, cond, 0.01) == pytest.approx(0.0, abs=1e-15)


def test_activation_hand_value_at_e_fold(cond):
    # i = e*i0 on both electrodes with alpha = 0.5 gives 2*(RT/0.5F) = 4RT/F.
    p = PhysicsParameters(i0_an=0.01, i0_cat=0.01)
    i = 0.01 * math.e
    expected = 4.0 * 8.314 * cond.T / 96485.0
    assert activation_overpotential(p, cond, i) == pytest.approx(expected, rel=1e-12)


def test_activation_golden_at_unit_current(params, cond):
    expected = (
        8.314 * cond.T / (0.5 * 96485.0) * math.log(1.0 / 2.3e-7)
        + 8.314 * cond.T / (0.5 * 96485.0) * math.log(1.0 / 1.0e-3)
    )
    got = activation_overpotential(params, cond, 1.0)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(1.1976984984017207, rel=1e-12)


def test_conductivity_reference_temperature():
    # exp term is exactly 1 at 303 K: 0.005139*20 - 0.00326.
    assert membrane_conductivity(20.0, 303.0) == pytest.approx(0.09952, rel=1e-12)


def test_conductivity_golden_at_operating_temperature():
    expected = 0.09952 * math.exp(1268.0 * (1.0 / 303.0 - 1.0 / 313.15))
    assert membrane_conductivity(20.0, 313.15) == pytest.approx(expected, rel=1e-12)
    assert membrane_conductivity(20.0, 313.15) == pytest.approx(
        0.11397731079555519, rel=1e-12
    )


def test_conductivity_rejects_boundary_hydration():
    # Just below the zero crossing 0.00326/0.005139 = 0.634365.
    with pytest.raises(ConfigError, match="'lambda_hydration'"):
        PhysicsParameters(lambda_hydration=0.634337)


def test_degraded_conductivity_ratios():
    assert degraded_conductivity(0.1, 0.0175, 0.0175) == pytest.approx(0.1, rel=1e-15)
    assert degraded_conductivity(0.1, 0.00875, 0.0175) == pytest.approx(
        0.025, rel=1e-15
    )
    assert degraded_conductivity(0.09952, 0.01, 0.0175) == pytest.approx(
        0.09952 * (0.01 / 0.0175) ** 2, rel=1e-15
    )


def test_degraded_never_exceeds_fresh():
    rng = np.random.default_rng(0)
    for _ in range(200):
        sigma = rng.uniform(0.01, 0.2)
        t0 = rng.uniform(0.005, 0.05)
        t = rng.uniform(1e-4, t0)
        assert degraded_conductivity(sigma, t, t0) <= sigma


def test_coefficients_k2v_and_k3v_hand_values(params, cond):
    c = voltage_coefficients(params, cond)
    assert c.k2V == pytest.approx(2 * 8.314 * 313.15 / (0.5 * 96485.0), rel=1e-13)
    sigma = membrane_conductivity(20.0, 313.15)
    assert c.k3V == pytest.approx(0.0175**2 / sigma, rel=1e-13)
    assert c.P_over_A == pytest.approx(500.0 / 680.0, rel=1e-15)


def test_coefficients_exchange_term_vanishes_for_unit_product(cond):
    # i0_an * i0_cat = 1 kills the kinetic contribution to k1V.
    p = PhysicsParameters(i0_an=10.0, i0_cat=0.1)
    c = voltage_coefficients(p, cond)
    assert c.k1V == pytest.approx(open_circuit_voltage(p, cond), rel=1e-13)


def test_nernst_sign_convention_equivalence(params, cond):
    # The open-circuit form and its rearrangement agree identically.
    rt_2f = params.R * cond.T / (2 * params.F)
    direct = params.E0 + rt_2f * math.log(
        cond.p_H2 * math.sqrt(cond.p_O2) / cond.p_H2O
    )
    rearranged = params.E0 - rt_2f * math.log(
        cond.p_H2O / (cond.p_H2 * math.sqrt(cond.p_O2))
    )
    assert direct == pytest.approx(rearranged, rel=1e-15)
    assert open_circuit_voltage(params, cond) == pytest.approx(direct, rel=1e-15)


def test_solve_golden_ratio_case():
    # V = 1 + 1/V has the closed-form root (1 + sqrt(5)) / 2.
    c = VoltageCoefficients(k1V=1.0, k2V=0.0, k3V=1.0, P_over_A=1.0)
    v = solve_cell_voltage(c, 1.0)
    assert v == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_solve_default_config_golden(coeffs, cond):
    # Golden value recorded from an independent bisection oracle run at 1e-14.
    v = solve_cell_voltage(coeffs, cond.t_mem0)
    assert v == pytest.approx(2.426453768299751, abs=1e-11)


def test_solve_matches_bisection_oracle(coeffs, cond):
    def g(v):
        i = coeffs.P_over_A / v
        return v - coeffs.k1V - coeffs.k2V * math.log(i) - coeffs.k3V * i / cond.t_mem0

    lo, hi = 0.5, 5.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    assert solve_cell_voltage(coeffs, cond.t_mem0) == pytest.approx(
        0.5 * (lo + hi), abs=1e-12
    )


def test_solve_residual_contract(coeffs):
    for t_mem in (0.0175, 0.012, 0.00875, 0.004):
        v = solve_cell_voltage(coeffs, t_mem)
        i = coeffs.P_over_A / v
        rhs = coeffs.k1V + coeffs.k2V * math.log(i) + coeffs.k3V * i / t_mem
        assert abs(v - rhs) <= 1e-10


def test_solve_monotone_decreasing_in_thickness():
    # Property over random physical coefficient sets.
    rng = np.random.default_rng(42)
    for _ in range(50):
        c = VoltageCoefficients(
            k1V=rng.uniform(1.2, 3.0),
            k2V=rng.uniform(0.01, 0.3),
            k3V=rng.uniform(1e-4, 1e-2),
            P_over_A=rng.uniform(0.2, 1.5),
        )
        t_a = rng.uniform(0.002, 0.05)
        t_b = t_a * rng.uniform(1.05, 3.0)
        try:
            v_thin = solve_cell_voltage(c, t_a)
            v_thick = solve_cell_voltage(c, t_b)
        except NumericalError:
            continue  # parameter draw left the bracket; not a physical set
        assert v_thin > v_thick


def test_solve_decomposition_consistency(params, cond, coeffs):
    # Reduced equation equals V_oc + V_act + V_ohm at i = P/(A V*), with the
    # ohmic term using the thinning-degraded conductivity.
    sigma = membrane_conductivity(params.lambda_hydration, cond.T)
    for t_mem in (0.0175, 0.013, 0.00875):
        v = solve_cell_voltage(coeffs, t_mem)
        i = coeffs.P_over_A / v
        sigma_deg = degraded_conductivity(sigma, t_mem, cond.t_mem0)
        decomposed = (
            open_circuit_voltage(params, cond)
            + activation_overpotential(params, cond, i)
            + ohmic_overpotential(sigma_deg, t_mem, i)
        )
        assert abs(v - decomposed) <= 1e-9


def test_solve_reports_missing_bracket():
    c = VoltageCoefficients(k1V=40.0, k2V=0.1, k3V=1e-3, P_over_A=0.7)
    with pytest.raises(NumericalError, match="no sign change"):
        solve_cell_voltage(c, 0.0175)


def test_solve_reports_no_convergence(coeffs):
    # A NaN thickness passes the bracket test and leaves every residual NaN.
    with pytest.raises(NumericalError) as err:
        solve_cell_voltage(coeffs, math.nan)
    assert str(err.value).startswith(
        "voltage equation did not converge in 100 Newton iterations at t_mem = nan cm"
    )
