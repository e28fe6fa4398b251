import dataclasses
import itertools
from decimal import Decimal, getcontext

import complex_step
import numpy as np
import pytest
import reference_physics

from pempinn.constants import PhysicsParameters, membrane_molar_concentration
from pempinn.degradation import (
    DiagnosticCounters,
    fluoride_release_rate,
    hydroxyl_chain_partials,
    hydroxyl_concentration,
    peroxide_quadratic_coefficients,
    solve_peroxide,
    solve_peroxide_selected,
    steady_state_radicals,
    thinning_rate,
    water_velocity,
)
from pempinn.errors import ChemistryError, ConfigError

V0_DEFAULT = 2.426453768299751  # bisection-oracle value for the default config


def test_water_velocity_zero_coefficient(cond):
    p = PhysicsParameters(kappa_w=1e-300)
    assert water_velocity(p, cond, 1.8) == pytest.approx(0.0, abs=1e-290)


def test_water_velocity_inverse_in_voltage(params, cond):
    assert water_velocity(params, cond, 3.6) == pytest.approx(
        water_velocity(params, cond, 1.8) / 2.0, rel=1e-14
    )


def test_water_velocity_hand_value(params, cond):
    expected = params.kappa_w * 500.0 / (680.0 * 1.8)
    assert water_velocity(params, cond, 1.8) == pytest.approx(expected, rel=1e-14)


def test_quadratic_constant_term_vanishes(cond):
    # v_H2O = 0 (kappa_w -> 0) and v1 -> 0 collapse C to zero.
    p = PhysicsParameters(kappa_w=1e-300, v1=1e-300)
    a, b, c = peroxide_quadratic_coefficients(p, cond, 1.8)
    assert c == pytest.approx(0.0, abs=1e-280)


def test_quadratic_linear_regime(params, cond):
    # kappa_w chosen so w = v_H2O/e_cl equals 3*k2 at this voltage: A = 0.
    v = 1.8
    i = cond.P / (cond.A_cell * v)
    kappa = 3.0 * params.k2 * params.e_cl / i
    p = PhysicsParameters(kappa_w=kappa)
    a, _, _ = peroxide_quadratic_coefficients(p, cond, v)
    assert a == pytest.approx(0.0, abs=1e-18)


def test_quadratic_golden_triple(params, cond):
    # Term-by-term recomputation, independent of the module's algebra.
    v = V0_DEFAULT
    w = params.kappa_w * (cond.P / (cond.A_cell * v)) / params.e_cl
    c_mem = params.rho_naf_SI / params.EW
    s = params.k4 * params.c_O2 + params.k5_true * c_mem - w
    exp_a = -3.0 * params.k2 + w
    exp_b = s * (w / (params.e_cl * params.k3)) * params.e_cl - params.v1 - s * (
        params.k2 / params.k3
    )
    exp_c = -s * (params.v1 / params.k3)
    a, b, c = peroxide_quadratic_coefficients(params, cond, v)
    assert a == pytest.approx(exp_a, rel=1e-12)
    assert b == pytest.approx(exp_b, rel=1e-12)
    assert c == pytest.approx(exp_c, rel=1e-12)
    # frozen golden values
    assert a == pytest.approx(0.09090936108184317, rel=1e-10)
    assert b == pytest.approx(4.534390164659092, rel=1e-10)
    assert c == pytest.approx(-618.5195719365543, rel=1e-10)


def test_solve_peroxide_factorable():
    assert solve_peroxide(1.0, -3.0, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_solve_peroxide_linear_case():
    assert solve_peroxide(0.0, 2.0, -4.0) == pytest.approx(2.0, rel=1e-14)


def test_solve_peroxide_no_cancellation():
    # Extended-precision oracle for the tiny root of x^2 - 1e8 x + 1 = 0.
    getcontext().prec = 60
    b = Decimal(-1e8)
    disc = b * b - Decimal(4)
    small = float((-b - disc.sqrt()) / 2)
    got = solve_peroxide(1.0, -1e8, 1.0)
    assert got == pytest.approx(small, rel=1e-15)
    assert got == pytest.approx(1e-8, rel=1e-12)


def test_solve_peroxide_degenerate_rejected():
    with pytest.raises(ChemistryError):
        solve_peroxide(0.0, 0.0, 1.0)


def test_solve_peroxide_no_positive_root():
    with pytest.raises(ChemistryError, match="no strictly positive"):
        solve_peroxide(1.0, 2.0, 1.0)  # roots both -1


def test_root_selection_smallest_positive():
    root, feasible = solve_peroxide_selected(
        np.array([1.0, 1.0, 0.0]), np.array([-3.0, 2.0, 2.0]), np.array([2.0, 1.0, -4.0])
    )
    assert bool(feasible[0]) and bool(feasible[2])
    assert not bool(feasible[1])  # roots exist but both negative... (-1 double)
    out = np.asarray(root)
    assert out[0] == pytest.approx(1.0, rel=1e-14)
    assert out[2] == pytest.approx(2.0, rel=1e-14)


def _root_selection_grid():
    """Coefficient triples over a small grid, with the cases each root
    selection branch handles marked by an independent textbook solve."""
    values = (-3.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    a, b, c = (np.array(col) for col in zip(*itertools.product(values, repeat=3)))
    quad = a != 0.0
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
    a_safe = np.where(quad, a, 1.0)
    n_pos = ((-b + sq) / (2.0 * a_safe) > 0.0).astype(int) + (
        (-b - sq) / (2.0 * a_safe) > 0.0
    )
    real = quad & (disc >= 0.0)
    cases = {
        "linear": ~quad & (b != 0.0),
        "degenerate": ~quad & (b == 0.0),
        "no_real_root": quad & (disc < 0.0),
        "q_zero": quad & (b == 0.0) & (c == 0.0),
        "one_positive_root": real & (n_pos == 1),
        "two_positive_roots": real & (n_pos == 2) & (disc > 0.0),
    }
    return a, b, c, cases


def test_root_selection_matches_generic_oracle_bitwise():
    # The plain-numpy selection the package runs and the reference one the
    # complex-step partials are checked against must pick the same root,
    # to the bit, and agree on feasibility, in every branch.
    a, b, c, cases = _root_selection_grid()
    for name, mask in cases.items():
        assert mask.any(), name
    root, feasible = solve_peroxide_selected(a, b, c)
    ref_root, ref_feasible = reference_physics.solve_peroxide_selected(a, b, c)
    assert np.asarray(root).tobytes() == np.asarray(ref_root).tobytes()
    assert np.array_equal(feasible, ref_feasible)
    lin = cases["linear"]
    assert np.array_equal(feasible[lin], -c[lin] / b[lin] > 0.0)
    assert not feasible[cases["degenerate"] | cases["no_real_root"]].any()
    assert not feasible[cases["q_zero"]].any()
    assert feasible[cases["one_positive_root"] | cases["two_positive_roots"]].all()
    two = cases["two_positive_roots"]
    sq = np.sqrt(b[two] ** 2 - 4.0 * a[two] * c[two])
    small = np.minimum((-b[two] + sq) / (2.0 * a[two]), (-b[two] - sq) / (2.0 * a[two]))
    assert np.allclose(root[two], small, rtol=1e-14, atol=0.0)
    # One triple at a time, as scalars, the same bits again.
    for i in range(a.size):
        one, ok = solve_peroxide_selected(a[i], b[i], c[i])
        assert np.asarray(one).tobytes() == root[i].tobytes() and ok == feasible[i]


def test_root_selection_continuity_under_perturbation():
    # Perturbing coefficients by 1e-12 relative never switches the root.
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(0.01, 2.0)
        b = rng.uniform(0.5, 50.0)
        c = -rng.uniform(1.0, 1e3)  # physical regime: A > 0, C < 0
        base = solve_peroxide(a, b, c)
        pert = solve_peroxide(
            a * (1 + 1e-12), b * (1 - 1e-12), c * (1 + 1e-12)
        )
        assert abs(pert - base) <= 1e-6 * max(1.0, abs(base))


def test_hydroxyl_exact_cancellation(params, cond):
    # Pick c_H2O2 so the formula value is exactly zero.
    v = 2.0
    w = water_velocity(params, cond, v) / params.e_cl
    c_h2o2 = params.v1 / (w - params.k2)
    got = hydroxyl_concentration(params, cond, v, c_h2o2)
    assert float(got) == pytest.approx(0.0, abs=1e-18)


def test_hydroxyl_hand_substitution(cond):
    # v1 -> 0 and w = 2*k2 leaves exactly k2/k3.
    base = PhysicsParameters()
    v = 2.0
    i = cond.P / (cond.A_cell * v)
    kappa = 2.0 * base.k2 * base.e_cl / i
    p = PhysicsParameters(kappa_w=kappa, v1=1e-300)
    got = hydroxyl_concentration(params=p, cond=cond, v=v, c_h2o2=1.0)
    assert float(got) == pytest.approx(p.k2 / p.k3, rel=1e-9)


def test_hydroxyl_golden_at_default_operating_point(params, cond):
    # Symbolic-substitution oracle: numpy's eigenvalue root finder plus the
    # definition of c_HO, fully independent of the stable-formula path.
    a, b, c = peroxide_quadratic_coefficients(params, cond, V0_DEFAULT)
    roots = np.roots([a, b, c])
    root = min(r.real for r in roots if r.real > 0 and abs(r.imag) < 1e-12)
    w = water_velocity(params, cond, V0_DEFAULT) / params.e_cl
    expected = w / params.k3 - params.k2 / params.k3 - params.v1 / (params.k3 * root)
    st = steady_state_radicals(params, cond, V0_DEFAULT)
    assert st.c_h2o2 == pytest.approx(root, rel=1e-10)
    assert st.c_ho == pytest.approx(expected, rel=1e-6)
    assert st.c_ho == pytest.approx(3.158182887351245e-12, rel=1e-8)


def test_hydroxyl_clamp_counted(params, cond):
    # Huge v1 drives the formula negative; the clamp must fire and count.
    diag = DiagnosticCounters()
    got = hydroxyl_concentration(params, cond, 2.0, 1e-9, diag=diag)
    assert float(got) == 0.0
    assert diag.hydroxyl_clamped == 1


def test_hydroxyl_rejects_nonpositive_peroxide(params, cond):
    with pytest.raises(ConfigError, match="c_h2o2"):
        hydroxyl_concentration(params, cond, 2.0, 0.0)


def test_steady_state_back_substitution(params, cond):
    st = steady_state_radicals(params, cond, V0_DEFAULT)
    assert st.residuals() <= 1e-9
    # c_HO equation residual, scaled by its largest term.
    w = water_velocity(params, cond, V0_DEFAULT) / params.e_cl
    terms = (
        w / params.k3,
        params.k2 / params.k3,
        params.v1 / (params.k3 * st.c_h2o2),
    )
    resid = abs(st.c_ho - (terms[0] - terms[1] - terms[2]))
    assert resid <= 1e-9 * max(abs(t) for t in terms)


def test_thinning_rate_zero_without_radicals(params):
    assert float(thinning_rate(params, 0.0, 0.0175)) == 0.0
    assert float(fluoride_release_rate(params, 0.0, 0.0175)) == 0.0


def test_thinning_rate_linear_in_thickness(params):
    c_ho = 3.0e-12
    one = float(thinning_rate(params, c_ho, 0.008))
    two = float(thinning_rate(params, c_ho, 0.016))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_thinning_rate_golden_composition(params, cond):
    # Compose the chain v5 -> v_fluor -> FRR -> TR independently.
    st = steady_state_radicals(params, cond, V0_DEFAULT)
    c_mem = membrane_molar_concentration(params)
    v5 = params.k5_true * st.c_ho * c_mem
    v_fluor = 3.6 * v5
    frr = v_fluor * params.MM_F * cond.t_mem0 * 3600.0 * 1e-6 * 1e6
    tr = frr / (params.rho_naf_cgs * 0.82) * 1e-6
    assert float(fluoride_release_rate(params, st.c_ho, cond.t_mem0)) == pytest.approx(
        frr, rel=1e-12
    )
    assert float(thinning_rate(params, st.c_ho, cond.t_mem0)) == pytest.approx(
        tr, rel=1e-12
    )


def test_thinning_rate_definitional_identity(params):
    # TR == FRR / (rho * 0.82) * 1e-6, exactly.
    c_ho, t_mem = 2.5e-12, 0.011
    frr = fluoride_release_rate(params, c_ho, t_mem)
    tr = thinning_rate(params, c_ho, t_mem)
    assert float(tr) == float(frr) * 1e-6 / (params.rho_naf_cgs * 0.82)


def test_hydroxyl_chain_matches_scalar_path(params, cond):
    volts = np.array([1.8, 2.2, V0_DEFAULT, 3.0])
    batched = hydroxyl_chain_partials(params, cond, volts, params.k5_true)[0]
    for i, v in enumerate(volts):
        st = steady_state_radicals(params, cond, float(v))
        assert batched[i] == pytest.approx(st.c_ho, rel=1e-12)


def test_hydroxyl_chain_masks_infeasible(params, cond):
    # k2 = 0.1 leaves the peroxide quadratic without a positive root at
    # every voltage: c_HO is zeroed and counted, not raised.
    volts = np.linspace(1.5, 2.5, 6)
    diag = DiagnosticCounters()
    out, dc_dv, dc_dk5 = hydroxyl_chain_partials(
        dataclasses.replace(params, k2=0.1), cond, volts, params.k5_true, diag
    )
    assert np.all(out == 0.0) and np.all(dc_dv == 0.0) and np.all(dc_dk5 == 0.0)
    assert diag.chemistry_infeasible == len(volts)
    assert diag.hydroxyl_clamped == 0


def test_hydroxyl_chain_clamps_negative_k5(params, cond):
    # A k5 this negative turns the hydroxyl formula negative; the peroxide
    # quadratic stays feasible, so c_HO is clamped to zero and counted.
    volts = np.linspace(1.5, 2.5, 6)
    diag = DiagnosticCounters()
    c_mem = membrane_molar_concentration(params)
    bad_k5 = -(params.k4 * params.c_O2 + 1.0) / c_mem
    out, dc_dv, dc_dk5 = hydroxyl_chain_partials(params, cond, volts, bad_k5, diag)
    assert np.all(out == 0.0) and np.all(dc_dv == 0.0) and np.all(dc_dk5 == 0.0)
    assert diag.hydroxyl_clamped == len(volts)
    assert diag.chemistry_infeasible == 0


@pytest.mark.parametrize(
    "k2, k5, regime",
    [
        (None, 1000.0, "live"),
        (None, 1300.0, "live"),
        (None, -1000.0, "hydroxyl_clamped"),
        (0.1, 1000.0, "chemistry_infeasible"),
    ],
)
def test_hydroxyl_chain_partials_match_dual(params, cond, k2, k5, regime):
    # c_HO and its partials in V and k5 against complex steps of the
    # reference hydroxyl_chain.
    # A negative k5 clamps the hydroxyl formula; k2 = 0.1 leaves the
    # peroxide quadratic without a positive root.
    if k2 is not None:
        params = dataclasses.replace(params, k2=k2)
    volts = np.linspace(1.6, 3.2, 41)
    ref_diag = DiagnosticCounters()
    ref = reference_physics.hydroxyl_chain(params, cond, volts, k5=k5, diag=ref_diag)
    ref_dv = complex_step.derivative(
        lambda v: reference_physics.hydroxyl_chain(params, cond, v, k5=k5), volts
    )
    ref_dk5 = complex_step.derivative(
        lambda k: reference_physics.hydroxyl_chain(params, cond, volts, k5=k), k5
    )
    diag = DiagnosticCounters()
    c_ho, dc_dv, dc_dk5 = hydroxyl_chain_partials(params, cond, volts, k5, diag)
    assert np.allclose(c_ho, ref, rtol=1e-6, atol=0.0)
    assert np.allclose(dc_dv, ref_dv, rtol=1e-6, atol=0.0)
    assert np.allclose(dc_dk5, ref_dk5, rtol=1e-6, atol=0.0)
    assert vars(diag) == vars(ref_diag)
    if regime == "live":
        assert vars(diag) == vars(DiagnosticCounters())
        assert np.all(c_ho > 0.0) and np.all(dc_dv != 0.0) and np.all(dc_dk5 != 0.0)
    else:
        assert getattr(diag, regime) == volts.size
        assert not np.any(c_ho) and not np.any(dc_dv) and not np.any(dc_dk5)
