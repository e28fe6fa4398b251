from dataclasses import fields

import pytest

from pempinn.constants import (
    OperatingConditions,
    PhysicsParameters,
    membrane_molar_concentration,
    saturation_pressure_bar,
)
from pempinn.degradation import fluoride_release_rate, thinning_rate
from pempinn.errors import ConfigError


def test_registry_literature_values(params):
    assert params.F == 96485.0
    assert params.R == 8.314
    assert params.E0 == 1.23
    assert params.alpha_an == 0.5 and params.alpha_cat == 0.5
    assert params.i0_an == 2.3e-7
    assert params.i0_cat == 1.0e-3
    assert params.lambda_hydration == 20.0
    assert params.EW == 1.100
    assert params.rho_naf_SI == 1980.0
    assert params.e_cl == 1.0e-5
    assert params.k2 == 1.2e-7
    assert params.k3 == 2.7e4
    assert params.k4 == 1.2e7
    assert params.k5_true == 1.0e3
    assert params.MM_F == 18.998
    assert params.fluorine_mass_fraction == 0.82
    assert params.fluoride_stoich == 3.6


def test_density_values_consistent(params):
    # The default g/cm3 density is the literature 1.98 to the bit.
    assert params.rho_naf_cgs == 1.98


def test_cgs_density_follows_si_density():
    # One density key; the g/cm3 value the thinning rate reads derives from it.
    p = PhysicsParameters(rho_naf_SI=2000.0)
    assert p.rho_naf_cgs == 2.0
    assert not any(f.name == "rho_naf_cgs" for f in fields(PhysicsParameters))
    frr = fluoride_release_rate(p, 3.0e-12, 0.0175)
    tr = thinning_rate(p, 3.0e-12, 0.0175)
    assert float(tr) == float(frr) * (1.0e-6 / (2.0 * 0.82))


def test_all_constants_strictly_positive(params):
    for f in fields(params):
        assert getattr(params, f.name) > 0.0, f.name


def test_k5_normalization_window(params):
    assert 0.1 <= params.k5_true / 1.0e3 <= 10.0
    with pytest.raises(ConfigError, match="k5_true"):
        PhysicsParameters(k5_true=5.0e4)


def test_membrane_molar_concentration():
    # 1980 / 1.1 by hand.
    p = PhysicsParameters()
    assert membrane_molar_concentration(p) == pytest.approx(1800.0, rel=1e-12)
    # ratio identity
    q = PhysicsParameters(rho_naf_SI=1.1, EW=1.1)
    assert membrane_molar_concentration(q) == pytest.approx(1.0, rel=1e-15)


def test_zero_density_rejected():
    with pytest.raises(ConfigError, match="rho_naf_SI"):
        PhysicsParameters(rho_naf_SI=0.0)


def test_dimensional_audit_conversion_factor():
    # Composed factor of the FRR/TR chain: s/h, m3/cm3, ug/g, g/ug.
    assert 3600.0 * 1e-6 * 1e6 * 1e-6 == pytest.approx(3.6e-3, rel=1e-15)


class _Tagged:
    """Unit-tagged scalar for the shadow evaluation of the thinning chain."""

    def __init__(self, value, units):
        self.value = value
        self.units = dict(units)

    def __mul__(self, other):
        units = dict(self.units)
        for k, v in other.units.items():
            units[k] = units.get(k, 0) + v
        return _Tagged(self.value * other.value, {k: v for k, v in units.items() if v})

    def __truediv__(self, other):
        units = dict(self.units)
        for k, v in other.units.items():
            units[k] = units.get(k, 0) - v
        return _Tagged(self.value / other.value, {k: v for k, v in units.items() if v})


def test_dimensional_audit_thinning_chain(params, cond):
    # Push unit tags through v5 -> v_fluor -> FRR -> TR; must land on cm/h.
    k5 = _Tagged(params.k5_true, {"m": 3, "mol": -1, "s": -1})
    c_ho = _Tagged(3.0e-12, {"mol": 1, "m": -3})
    c_mem = _Tagged(1800.0, {"mol": 1, "m": -3})
    v5 = k5 * c_ho * c_mem
    assert v5.units == {"mol": 1, "m": -3, "s": -1}
    v_fluor = _Tagged(3.6, {}) * v5
    mm_f = _Tagged(params.MM_F, {"g": 1, "mol": -1})
    t_mem = _Tagged(cond.t_mem0, {"cm": 1})
    s_per_h = _Tagged(3600.0, {"s": 1, "h": -1})
    m3_per_cm3 = _Tagged(1e-6, {"m": 3, "cm": -3})
    ug_per_g = _Tagged(1e6, {"ug": 1, "g": -1})
    frr = v_fluor * mm_f * t_mem * s_per_h * m3_per_cm3 * ug_per_g
    assert frr.units == {"ug": 1, "h": -1, "cm": -2}
    rho = _Tagged(params.rho_naf_cgs, {"g": 1, "cm": -3})
    g_per_ug = _Tagged(1e-6, {"g": 1, "ug": -1})
    tr = frr / (rho * _Tagged(0.82, {})) * g_per_ug
    assert tr.units == {"cm": 1, "h": -1}


def test_saturation_pressure_sane():
    # Steam-table anchor: 0.07384 bar at 40 C (correlation within ~0.5%).
    assert saturation_pressure_bar(313.15) == pytest.approx(0.07384, rel=5e-3)
    assert saturation_pressure_bar(373.15) == pytest.approx(1.0133, rel=5e-3)


def test_operating_conditions_validation():
    with pytest.raises(ConfigError, match="T"):
        OperatingConditions(T=200.0)
    with pytest.raises(ConfigError, match="p_O2"):
        OperatingConditions(p_O2=-1.0)
    with pytest.raises(ConfigError, match="p_H2'"):
        OperatingConditions(p_H2=-1.0)
    with pytest.raises(ConfigError, match="p_H2O"):
        OperatingConditions(p_H2O=0.0)
    with pytest.raises(ConfigError, match="t_mem0"):
        OperatingConditions(t_mem0=0.5)
    with pytest.raises(ConfigError, match="t_max"):
        OperatingConditions(t_max=0.0)


def test_temperature_checked_once_with_or_without_p_h2o():
    # T is checked before p_H2O defaults to the saturation pressure at T,
    # so a bad T gets one message whether p_H2O is given or not.
    for kwargs in ({}, {"p_H2O": 0.07}):
        with pytest.raises(ConfigError, match="'T': temperature must exceed 273.15 K"):
            OperatingConditions(T=200.0, **kwargs)


def test_default_p_h2o_is_saturation(cond):
    assert cond.p_H2O == pytest.approx(saturation_pressure_bar(cond.T), rel=1e-15)
