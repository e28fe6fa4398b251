import dataclasses
import functools
import sys
import warnings

import complex_step
import numpy as np
import pytest
from reference_loss import reference_gradient
from reference_physics import (
    hydroxyl_chain,
    thinning_residual_terms,
    voltage_residual_terms,
)

from pempinn import _kernel, _residual, autodiff
from pempinn.constants import K5_SCALE
from pempinn.degradation import (
    DiagnosticCounters,
    peroxide_quadratic_coefficients,
    thinning_rate,
)
from pempinn.electrochem import solve_cell_voltage
from pempinn.errors import ConfigError, NumericalError
from pempinn.network import (
    NetworkParameters,
    flatten,
    init_parameters,
    mlp_forward,
    mlp_with_tangent,
    predict,
    unflatten,
)
from pempinn.training import (
    CLAMP_EPS,
    AdamState,
    EpochRecord,
    TrainingConfig,
    adam_step,
    composite_loss,
    evaluate,
    loss_points,
    residual_block,
    residual_partials,
    train,
)


def small_config(**kw):
    kw.setdefault("max_epochs", 5)
    kw.setdefault("n_collocation", 16)
    return TrainingConfig(**kw)


def constant_output_network(cond, y_v=1.2, y_m=0.9, k5_hat=0.0):
    """Zero weights except output biases: outputs are constant in time."""
    base = init_parameters(0, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
    weights = tuple(np.zeros_like(w) for w in base.weights)
    biases = list(np.zeros_like(b) for b in base.biases)
    biases[-1] = np.array([y_v, y_m])
    return NetworkParameters(
        weights=weights,
        biases=tuple(biases),
        k5_hat=k5_hat,
        input_scale=cond.t_max,
        v_ref=base.v_ref,
        t_mem_ref=base.t_mem0 if hasattr(base, "t_mem0") else base.t_mem_ref,
    )


def network_residuals(net, params, cond, coeffs, t):
    """(voltage, thinning) residuals of ``net`` at physical times ``t``, from
    the outputs and tau-derivatives of one mlp_with_tangent pass."""
    tau = np.asarray(t, dtype=float) / net.input_scale
    (y_v, y_m), (dyv, dym), _ = mlp_with_tangent(net.weights, net.biases, tau)
    r_v = voltage_residual_terms(
        y_v, y_m, dyv, dym, coeffs, net.v_ref, net.t_mem_ref
    )
    r_m = thinning_residual_terms(
        y_v, y_m, dym, net.k5_hat, params, cond,
        net.v_ref, net.t_mem_ref, cond.t_max,
    )
    return r_v, r_m


# -- residuals ---------------------------------------------------------------


def test_voltage_residual_zero_for_constant_outputs(params, cond, coeffs):
    net = constant_output_network(cond)
    t = np.linspace(0.0, cond.t_max, 7)
    r, _ = network_residuals(net, params, cond, coeffs, t)
    assert np.allclose(np.asarray(r), 0.0, atol=1e-18)


def test_voltage_residual_two_term_hand_case():
    # k2V = 0 leaves r = dyv*[1 + k3V*(P/A)/(tm*V^2)] + k3V*(P/A)/(V*tm^2)
    # * (t_ref/v_ref) * dym; checked against direct substitution.
    from pempinn.electrochem import VoltageCoefficients

    coeffs = VoltageCoefficients(k1V=1.5, k2V=0.0, k3V=2e-3, P_over_A=0.7)
    y_v, y_m = 1.21, 0.82
    dyv, dym = 0.013, -0.61
    v_ref, t_ref = 2.0, 0.0175
    got = voltage_residual_terms(y_v, y_m, dyv, dym, coeffs, v_ref, t_ref)
    v = v_ref * y_v
    tm = t_ref * y_m
    expected = dyv * (1 + 2e-3 * 0.7 / (tm * v * v)) + (
        2e-3 * 0.7 / (v * tm * tm) * (t_ref / v_ref) * dym
    )
    assert float(got) == pytest.approx(expected, rel=1e-14)


def test_voltage_residual_small_on_ground_truth(params, cond, coeffs, trajectory):
    # Substituting the true trajectory (with FD derivatives) into the
    # residual operator gives values that shrink with resolution.
    def residual_scale(stride):
        t = trajectory.times[:: stride][1:-1]
        v = trajectory.voltages[:: stride]
        m = trajectory.thicknesses[:: stride]
        dt = np.diff(trajectory.times[:: stride])[0]
        dv = (v[2:] - v[:-2]) / (2 * dt)
        dm = (m[2:] - m[:-2]) / (2 * dt)
        y_v = v[1:-1] / 2.0
        y_m = m[1:-1] / cond.t_mem0
        dyv = dv * cond.t_max / 2.0
        dym = dm * cond.t_max / cond.t_mem0
        r = voltage_residual_terms(y_v, y_m, dyv, dym, coeffs, 2.0, cond.t_mem0)
        return float(np.max(np.abs(np.asarray(r))))

    coarse = residual_scale(64)
    fine = residual_scale(8)
    assert fine < coarse
    assert fine < 1e-4


def test_thinning_residual_reduces_without_attack(params, cond, coeffs):
    # k5_hat = 0 leaves the pure derivative penalty.
    net = constant_output_network(cond, k5_hat=0.0)
    t = np.linspace(0.0, cond.t_max, 5)
    _, r = network_residuals(net, params, cond, coeffs, t)
    assert np.allclose(np.asarray(r), 0.0, atol=1e-18)

    # and with nonzero k5_hat the same constant network picks up the
    # degradation term only.
    net2 = constant_output_network(cond, k5_hat=1.0)
    _, r2 = network_residuals(net2, params, cond, coeffs, np.array([0.0]))
    r2 = np.asarray(r2)
    v = 2.0 * 1.2
    c_ho = float(np.asarray(hydroxyl_chain(params, cond, np.array([v]), k5=K5_SCALE))[0])
    tr = float(thinning_rate(params, c_ho, cond.t_mem0 * 0.9, k5=K5_SCALE))
    expected = cond.t_max / cond.t_mem0 * tr
    assert r2[0] == pytest.approx(expected, rel=1e-12)


def test_thinning_residual_reduces_when_hydroxyl_clamps(params, cond, coeffs):
    # A (transiently) negative trainable k5 drives the hydroxyl formula
    # negative; the clamp zeroes the attack term and leaves the pure
    # derivative penalty, exactly as with k5_hat = 0.
    net = constant_output_network(cond, k5_hat=-10.0)
    t = np.linspace(0.0, cond.t_max, 5)
    _, r = network_residuals(net, params, cond, coeffs, t)
    r = np.asarray(r)
    assert np.array_equal(r, np.zeros_like(r))  # dym = 0 for a constant net


def test_thinning_residual_small_with_true_k5(params, cond, trajectory):
    # Overfit probe: true trajectory values with FD derivatives and
    # k5_hat = k5_true/1e3 give near-zero residuals.
    stride = 8
    t = trajectory.times[::stride][1:-1]
    v = trajectory.voltages[::stride]
    m = trajectory.thicknesses[::stride]
    dt = np.diff(trajectory.times[::stride])[0]
    dm = (m[2:] - m[:-2]) / (2 * dt)
    y_v = v[1:-1] / 2.0
    y_m = m[1:-1] / cond.t_mem0
    dym = dm * cond.t_max / cond.t_mem0
    r = thinning_residual_terms(
        y_v, y_m, dym, params.k5_true / K5_SCALE, params, cond,
        2.0, cond.t_mem0, cond.t_max,
    )
    assert float(np.mean(np.abs(np.asarray(r)))) < 1e-3


# -- composite loss ----------------------------------------------------------


def test_loss_zero_for_perfect_noise_free_fit(params, cond, coeffs, trajectory):
    # A constant network, a dataset whose targets equal the network outputs,
    # and all physics weights off: the loss must vanish.
    from pempinn.simulator import Dataset

    net = constant_output_network(cond)
    times = np.linspace(0.0, cond.t_max / 3, 9)
    v_pred, m_pred = predict(net, times)
    ds = Dataset(
        train_times=times,
        train_voltages=np.asarray(v_pred),
        train_thicknesses=np.asarray(m_pred),
        test_times=times,
        test_voltages=np.asarray(v_pred),
        test_thicknesses=np.asarray(m_pred),
        noise_sigma_v=0.0,
        noise_sigma_mem=0.0,
        seed=0,
        train_fraction=1 / 3,
    )
    cfg = small_config(lambda_v=0.0, lambda_tmem=0.0, lambda_ic=0.0)
    points = loss_points(net, ds, cfg, cond)
    comps, _ = composite_loss(net, points, cfg, coeffs, params, cond, v0=1.0)
    assert comps["total"] == pytest.approx(0.0, abs=1e-18)


def test_loss_quadratic_scaling(params, cond, coeffs, small_dataset):
    cfg = small_config(lambda_v=0.0, lambda_tmem=0.0, lambda_ic=0.0)
    net = constant_output_network(cond)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    points = loss_points(net, small_dataset, cfg, cond)
    base, _ = composite_loss(net, points, cfg, coeffs, params, cond, v0)

    # Doubling every data residual quadruples the data component: build a
    # dataset whose targets are twice as far from the constant predictions.
    from dataclasses import replace as dc_replace

    v_pred, m_pred = predict(net, small_dataset.train_times)
    ds2 = dc_replace(
        small_dataset,
        train_voltages=2 * small_dataset.train_voltages - np.asarray(v_pred),
        train_thicknesses=2 * small_dataset.train_thicknesses - np.asarray(m_pred),
    )
    points2 = loss_points(net, ds2, cfg, cond)
    doubled, _ = composite_loss(net, points2, cfg, coeffs, params, cond, v0)
    assert doubled["data"] == pytest.approx(4.0 * base["data"], rel=1e-12)


def test_loss_hand_built_single_point(params, cond, coeffs):
    # One data point, one collocation point, everything reduced by hand.
    from pempinn.simulator import Dataset

    net = constant_output_network(cond, k5_hat=0.5)
    t0 = np.array([0.0])
    v_t, m_t = 2.5, 0.016
    ds = Dataset(
        train_times=t0,
        train_voltages=np.array([v_t]),
        train_thicknesses=np.array([m_t]),
        test_times=t0,
        test_voltages=np.array([v_t]),
        test_thicknesses=np.array([m_t]),
        noise_sigma_v=0.0,
        noise_sigma_mem=0.0,
        seed=0,
        train_fraction=1.0,
    )
    cfg = TrainingConfig(
        max_epochs=1, n_collocation=2, lambda_v=0.3, lambda_tmem=0.7, lambda_ic=2.0
    )
    v0 = 2.4
    points = loss_points(net, ds, cfg, cond)
    comps, _ = composite_loss(net, points, cfg, coeffs, params, cond, v0)

    data = (1.2 - v_t / 2.0) ** 2 + (0.9 - m_t / cond.t_mem0) ** 2
    r_v, r_m = (
        np.asarray(r)
        for r in network_residuals(
            net, params, cond, coeffs, np.linspace(0.0, cond.t_max, 2)
        )
    )
    ic = (1.2 - v0 / 2.0) ** 2 + (0.9 - 1.0) ** 2
    expected = (
        data
        + 0.3 * float(np.mean(r_v**2))
        + 0.7 * float(np.mean(r_m**2))
        + 2.0 * ic
    )
    assert comps["total"] == pytest.approx(expected, rel=1e-12)


def test_loss_components_sum_to_total(params, cond, coeffs, small_dataset):
    net = init_parameters(3, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
    cfg = small_config()
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    points = loss_points(net, small_dataset, cfg, cond)
    comps, _ = composite_loss(net, points, cfg, coeffs, params, cond, v0)
    assert all(v >= 0.0 for k, v in comps.items() if k != "total")
    s = comps["data"] + comps["physics_v"] + comps["physics_mem"] + comps["ic"]
    assert s == pytest.approx(comps["total"], rel=1e-12)


def test_physics_enabled_follows_the_residual_weights():
    # Either residual weight alone turns the physics on; both at 0 is the
    # ANN baseline. It is derived, so it cannot be set.
    assert TrainingConfig().physics_enabled
    assert TrainingConfig(lambda_v=3.0, lambda_tmem=0.0).physics_enabled
    assert TrainingConfig(lambda_v=0.0, lambda_tmem=2.0).physics_enabled
    assert not TrainingConfig(lambda_v=0.0, lambda_tmem=0.0).physics_enabled
    with pytest.raises(TypeError, match="physics_enabled"):
        dataclasses.replace(TrainingConfig(), physics_enabled=False)


def test_training_config_is_frozen():
    # A value checked (and hashed into provenance) cannot change afterwards,
    # nor can the physics switch the weights imply.
    cfg = TrainingConfig(lambda_v=0.0, lambda_tmem=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda_v = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.physics_enabled = True
    assert (cfg.lambda_v, cfg.lambda_tmem) == (0.0, 0.0)
    assert not cfg.physics_enabled


def test_config_validation():
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="lambda_v"):
        TrainingConfig(lambda_v=-1.0)
    with pytest.raises(ConfigError, match="n_collocation"):
        TrainingConfig(n_collocation=1)


# -- optimizer ---------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    cfg = TrainingConfig(learning_rate=0.01, adam_eps=1e-300)
    state = AdamState.zeros(3)
    params = np.array([1.0, 2.0, 3.0])
    grad = np.array([0.5, -2.0, 1e-4])
    new, state = adam_step(state, params, grad, cfg)
    # bias-corrected m_hat = g, v_hat = g^2: step is exactly -lr*sign(g)
    assert np.allclose(new - params, -0.01 * np.sign(grad), rtol=1e-10)
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameters():
    cfg = TrainingConfig()
    state = AdamState.zeros(2)
    params = np.array([1.0, -1.0])
    new, state = adam_step(state, params, np.zeros(2), cfg)
    assert np.array_equal(new, params)
    # moments stay zero, then decay from a nonzero push
    new, state = adam_step(state, new, np.array([1.0, 0.0]), cfg)
    new, state = adam_step(state, new, np.zeros(2), cfg)
    assert state.m[0] < 0.1 and state.m[0] > 0.0


def test_adam_deterministic():
    cfg = TrainingConfig()

    def run():
        state = AdamState.zeros(4)
        params = np.linspace(-1, 1, 4)
        for k in range(20):
            grad = np.sin(params * (k + 1))
            params, state = adam_step(state, params, grad, cfg)
        return params

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(NumericalError, match="non-finite gradient"):
        adam_step(AdamState.zeros(2), np.zeros(2), np.array([0.5, np.nan]), TrainingConfig())


# -- train / evaluate ---------------------------------------------------------


def test_train_zero_epochs_returns_init(params, cond, small_dataset):
    cfg = small_config(max_epochs=0, seed=12)
    net, metrics = train(small_dataset, params, cond, cfg)
    ref = init_parameters(12, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
    assert np.array_equal(flatten(net), flatten(ref))
    assert metrics.loss_history == []
    assert np.isfinite(metrics.rmse_test_v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite_loss(params, cond, small_dataset, residual_kernel):
    # An absurd learning rate overflows the affine outputs within an epoch;
    # the abort must name the epoch.
    cfg = small_config(max_epochs=10, learning_rate=1e200)
    with pytest.raises(NumericalError, match="epoch"):
        train(small_dataset, params, cond, cfg)


def test_train_deterministic_bitwise(params, cond, small_dataset):
    cfg = small_config(max_epochs=8, seed=5)
    n1, m1 = train(small_dataset, params, cond, cfg)
    n2, m2 = train(small_dataset, params, cond, cfg)
    assert np.array_equal(flatten(n1), flatten(n2))
    assert m1.loss_history == m2.loss_history


def test_train_history_and_checkpoint_hook(params, cond, small_dataset):
    seen = []
    cfg = small_config(max_epochs=6, checkpoint_every=2)
    net, metrics = train(
        small_dataset, params, cond, cfg,
        checkpoint_hook=lambda epoch, n: seen.append(epoch),
    )
    assert seen == [2, 4, 6]
    assert len(metrics.loss_history) == 6
    assert isinstance(metrics.loss_history[0], EpochRecord)
    assert metrics.loss_history[0].k5_hat == 0.0


def test_k5_gradient_path_alive(params, cond, coeffs, small_dataset):
    # After a warm-up step the k5 coordinate must receive gradient whenever
    # the thinning weight is positive and some collocation point has
    # positive attack rate.
    cfg = small_config(max_epochs=2, seed=0)
    net, _ = train(small_dataset, params, cond, cfg)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    points = loss_points(net, small_dataset, cfg, cond)
    g = composite_loss(net, points, cfg, coeffs, params, cond, v0)[1]
    assert g[-1] != 0.0
    ref = reference_gradient(net, small_dataset, cfg, coeffs, params, cond, v0)
    assert ref[-1] != 0.0


def test_evaluate_perfect_and_constant_predictors(params, cond, trajectory):
    from pempinn.simulator import Dataset

    net = constant_output_network(cond)
    times = np.linspace(0.0, cond.t_max, 11)
    v_pred, m_pred = predict(net, times)
    perfect = Dataset(
        train_times=times,
        train_voltages=np.asarray(v_pred),
        train_thicknesses=np.asarray(m_pred),
        test_times=times,
        test_voltages=np.asarray(v_pred),
        test_thicknesses=np.asarray(m_pred),
        noise_sigma_v=0.0,
        noise_sigma_mem=0.0,
        seed=0,
        train_fraction=1.0,
    )
    m = evaluate(net, perfect)
    assert m.rmse_test_v == 0.0 and m.rmse_test_mem == 0.0

    # Constant predictor at the target mean scores the population std.
    targets_v = trajectory.voltages[:11]
    targets_m = trajectory.thicknesses[:11]
    mean_net = constant_output_network(
        cond, y_v=float(np.mean(targets_v)) / 2.0,
        y_m=float(np.mean(targets_m)) / cond.t_mem0,
    )
    ds = Dataset(
        train_times=times,
        train_voltages=targets_v,
        train_thicknesses=targets_m,
        test_times=times,
        test_voltages=targets_v,
        test_thicknesses=targets_m,
        noise_sigma_v=0.0,
        noise_sigma_mem=0.0,
        seed=0,
        train_fraction=1.0,
    )
    m2 = evaluate(mean_net, ds)
    assert m2.rmse_test_v == pytest.approx(float(np.std(targets_v)), rel=1e-10)
    assert m2.rmse_test_mem == pytest.approx(float(np.std(targets_m)), rel=1e-10)


def test_gradient_matches_fd_through_full_loss(
    params, cond, coeffs, small_dataset, residual_kernel
):
    # Spot check on a physically plausible network (output biases near the
    # operating point) so no clamp is active and FD is well conditioned.
    cfg = small_config(n_collocation=8)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    base = init_parameters(4, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
    biases = list(base.biases)
    biases[-1] = np.array([v0 / 2.0, 1.0])
    net = NetworkParameters(
        weights=base.weights,
        biases=tuple(biases),
        k5_hat=0.3,
        input_scale=base.input_scale,
        v_ref=base.v_ref,
        t_mem_ref=base.t_mem_ref,
    )
    points = loss_points(net, small_dataset, cfg, cond)
    g = composite_loss(net, points, cfg, coeffs, params, cond, v0)[1]
    vec = flatten(net)

    def loss_at(v):
        nn = unflatten(v, net)
        comps, _ = composite_loss(nn, points, cfg, coeffs, params, cond, v0)
        return comps["total"]

    # With k5_hat != 0 the hydroxyl cancellation (terms ~1e-6 differenced to
    # ~1e-12) injects ~1e-10 relative noise into every FD loss evaluation,
    # so the oracle cannot resolve beyond ~1e-7 absolute here.
    h = 1e-4
    for i in list(range(0, 88, 11)) + [87]:
        e = np.zeros_like(vec)
        e[i] = h
        fd = (
            8 * (loss_at(vec + e) - loss_at(vec - e))
            - (loss_at(vec + 2 * e) - loss_at(vec - 2 * e))
        ) / (12 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=5e-7)


def _parity_networks(cond, v0):
    """(label, network) pairs the graph-free gradient is pinned on."""
    nets = []
    for seed in range(8):
        base = init_parameters(seed, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
        vec = flatten(base)
        nets.append((f"init_{seed}", base))
        # Output biases near the operating point, and k5_hat != 0.
        vec[-3], vec[-2], vec[-1] = v0 / 2.0, 1.0, 0.2 + 0.15 * seed
        nets.append((f"k5_{seed}", unflatten(vec, base)))
    tau = np.linspace(0.0, 1.0, 64)
    for i in range(4):
        base = init_parameters(20 + i, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
        vec = flatten(base)
        # The voltage output crosses the clamp floor at mid-horizon; an
        # odd case's negative k5_hat also clamps the hydroxyl formula.
        vec[-3] = 0.0
        zero_bias = unflatten(vec, base)
        y_v = mlp_forward(zero_bias.weights, zero_bias.biases, tau)[0]
        vec[-3], vec[-2] = CLAMP_EPS - float(np.median(y_v)), 1.0
        vec[-1] = (-1.0) ** i * (0.5 + 0.4 * i)
        nets.append((f"clamp_{i}", unflatten(vec, base)))
    return nets


def test_gradient_matches_reference_engine(
    params, cond, coeffs, small_dataset, residual_kernel
):
    # The closed-form gradient against the complex-step gradient of the
    # reference loss (tests/reference_loss.py), entry by entry.
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    configs = {
        "pinn": small_config(n_collocation=64),
        "ann": small_config(n_collocation=64, lambda_v=0.0, lambda_tmem=0.0),
    }
    nets = _parity_networks(cond, v0)
    assert len(nets) >= 20
    clamped = 0
    for label, net in nets:
        for name, cfg in configs.items():
            diag = DiagnosticCounters()
            points = loss_points(net, small_dataset, cfg, cond)
            _, g = composite_loss(net, points, cfg, coeffs, params, cond, v0, diag)
            ref = reference_gradient(net, small_dataset, cfg, coeffs, params, cond, v0)
            assert g.shape == ref.shape == (88,)
            assert np.allclose(g, ref, rtol=1e-6, atol=0.0), (label, name)
            if name == "ann":
                assert g[-1] == 0.0
            elif label.startswith("clamp"):
                # Some points clamped, not all (4 counts per point).
                clamped += 0 < diag.output_clamped < 4 * cfg.n_collocation
                assert (diag.hydroxyl_clamped > 0) == (net.k5_hat < 0.0)
            else:
                assert g[-1] != 0.0 or net.k5_hat == 0.0
    assert clamped == 4


def test_train_steps_along_composite_loss_gradient(
    params, cond, coeffs, small_dataset, residual_kernel
):
    cfg = small_config(max_epochs=1, seed=9)
    net, metrics = train(small_dataset, params, cond, cfg)
    start = init_parameters(9, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    points = loss_points(start, small_dataset, cfg, cond)
    comps, grad = composite_loss(start, points, cfg, coeffs, params, cond, v0)
    expected, _ = adam_step(AdamState.zeros(88), flatten(start), grad, cfg)
    assert np.array_equal(flatten(net), expected)
    assert metrics.loss_history[0].loss_total == comps["total"]


@pytest.mark.parametrize(
    "case", ["live", "clamped_outputs", "hydroxyl_clamp", "infeasible"]
)
def test_residual_partials_match_complex_step_jacobian(params, cond, coeffs, case):
    # The closed-form partials, point by point, against complex steps of
    # the reference residuals in each of y_v, y_m, dy_v/dtau, dy_m/dtau and
    # k5_hat; the residuals are pointwise, so one step per input gives
    # every point's partial.
    rng = np.random.default_rng(5)
    n = 64
    v_ref, t_ref = 2.0, cond.t_mem0
    y_v = 1.21 + 0.05 * rng.standard_normal(n)
    y_m = 0.8 + 0.1 * rng.standard_normal(n)
    dyv = 0.05 * rng.standard_normal(n)
    dym = -0.3 + 0.05 * rng.standard_normal(n)
    k5_hat = 1.0
    if case == "clamped_outputs":
        y_v[::3] = CLAMP_EPS - 0.5 * rng.random(len(y_v[::3]))
        y_m[1::4] = CLAMP_EPS - 0.5 * rng.random(len(y_m[1::4]))
        y_v[1] = y_m[2] = CLAMP_EPS  # at the floor counts as clamped
    elif case == "hydroxyl_clamp":
        k5_hat = -1.0
    elif case == "infeasible":
        # k2 = 0.1 leaves the peroxide quadratic without a positive root.
        params = dataclasses.replace(params, k2=0.1)

    def residuals(y_v, y_m, dyv, dym, k5_hat, diag=None):
        r_v = voltage_residual_terms(y_v, y_m, dyv, dym, coeffs, v_ref, t_ref, diag)
        r_m = thinning_residual_terms(
            y_v, y_m, dym, k5_hat, params, cond, v_ref, t_ref, cond.t_max, diag,
        )
        return np.stack([r_v, r_m])

    inputs = (y_v, y_m, dyv, dym, k5_hat)
    ref_diag = DiagnosticCounters()
    ref_v, ref_m = residuals(*inputs, diag=ref_diag)
    ref_jac = [
        complex_step.derivative(
            lambda x: residuals(*inputs[:k], x, *inputs[k + 1:]), inputs[k]
        )
        for k in range(5)
    ]
    diag = DiagnosticCounters()
    r_v, rows_v, r_m, rows_m = residual_partials(
        y_v, y_m, dyv, dym, k5_hat, coeffs, params, cond,
        v_ref, t_ref, diag,
    )

    for got, ref in ((r_v, ref_v), (r_m, ref_m)):
        assert np.allclose(got, ref, rtol=1e-6, atol=0.0), case
    # The varying partials: residual i's rows against ref_jac[k][i] for the
    # inputs k they stand for.
    for i, rows, inputs_of_rows in ((0, rows_v, (0, 1, 2, 3)), (1, rows_m, (0, 1, 4))):
        assert len(rows) == len(inputs_of_rows)
        for got, k in zip(rows, inputs_of_rows):
            assert got.shape == (n,)
            assert np.allclose(got, ref_jac[k][i], rtol=1e-6, atol=0.0), (case, i, k)
    # The constant ones, exactly: dr_v/dk5_hat = 0, dr_m/dy_v' = 0 and
    # dr_m/dy_m' = 1.
    assert np.all(ref_jac[4][0] == 0.0)
    assert np.all(ref_jac[2][1] == 0.0)
    assert np.all(ref_jac[3][1] == 1.0)
    assert vars(diag) == vars(ref_diag)
    if case == "clamped_outputs":
        dead = (y_v <= CLAMP_EPS) | (y_m <= CLAMP_EPS)
        assert 0 < diag.output_clamped < 4 * n
        assert np.all(rows_v[0][y_v <= CLAMP_EPS] == 0.0)
        assert np.all(rows_m[1][y_m <= CLAMP_EPS] == 0.0)
        assert np.all(rows_v[0][~dead] != 0.0)
    else:
        assert diag.output_clamped == 0
    if case == "hydroxyl_clamp":
        assert diag.hydroxyl_clamped == n
    if case == "infeasible":
        assert diag.chemistry_infeasible == n
        # No attack: the thinning residual depends on dy_m/dtau alone.
        assert np.array_equal(r_m, dym)
        assert not np.any(rows_m)
    else:
        assert diag.chemistry_infeasible == 0
        if case != "hydroxyl_clamp":
            assert np.all(rows_m[2] != 0.0)


def test_composite_loss_builds_no_value(
    params, cond, coeffs, small_dataset, monkeypatch, residual_kernel
):
    # The training path runs on plain arrays and never builds a graph.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"composite_loss built a {type(self).__name__}")

    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    nets = [net for label, net in _parity_networks(cond, v0)
            if label in ("init_0", "k5_1", "clamp_0", "clamp_1")]
    monkeypatch.setattr(autodiff.Value, "__init__", refuse)
    for cfg in (small_config(), small_config(lambda_v=0.0, lambda_tmem=0.0)):
        for net in nets:
            comps, grad = composite_loss(
                net, loss_points(net, small_dataset, cfg, cond), cfg, coeffs,
                params, cond, v0, DiagnosticCounters(),
            )
            assert np.isfinite(comps["total"]) and np.all(np.isfinite(grad))


# -- the residual block: numpy and _residual.c --------------------------------


def _block_both_ways(block, case):
    """``(result, g_y, g_dy, counters, warnings)`` of ``block`` and of
    ``residual_block`` on ``case``, each with fresh gradient blocks and
    counters, every warning recorded."""
    runs = []
    for fn in (block, residual_block):
        y = case[0]
        g_y, g_dy, diag = np.zeros_like(y), np.zeros_like(y), DiagnosticCounters()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            result = fn(*case, g_y, g_dy, diag)
        runs.append((result, g_y, g_dy, vars(diag),
                     [(w.category, str(w.message)) for w in seen]))
    return runs


def _result_bytes(result):
    """The bytes of a residual block's results, rows included."""
    *sums, rows = result
    return np.array(sums).tobytes(), [np.asarray(r).tobytes() for r in rows]


def test_check_cases_reach_every_branch():
    # The self-check's block clamps outputs below, at and for NaN, makes
    # the chemistry infeasible, clamps the hydroxyl and has a == 0, with
    # no float fault in numpy (the warnings filter makes one an error).
    cases = _residual.check_cases()
    counted = []
    for case in cases:
        y = case[0]
        diag = DiagnosticCounters()
        residual_block(*case, np.zeros_like(y), np.zeros_like(y), diag)
        counted.append(vars(diag))
    assert all(c["output_clamped"] > 0 for c in counted)
    assert [c["chemistry_infeasible"] > 0 for c in counted] == [True, False, True]
    assert [c["hydroxyl_clamped"] > 0 for c in counted] == [False, True, False]
    y, _, n_c, k5_hat, v_ref, *_, case_params, case_cond = cases[2]
    a = peroxide_quadratic_coefficients(
        case_params, case_cond, v_ref * y[0, :n_c], k5_hat * K5_SCALE
    )[0]
    assert a[0] == 0.0 and np.count_nonzero(a == 0.0) == 1
    for case in cases:
        assert np.isnan(case[0][:, :case[2]]).any()
        assert (case[0][:, :case[2]] == CLAMP_EPS).any()


def test_c_residual_writes_numpy_bits_on_the_check_cases(c_residual):
    for case in _residual.check_cases():
        y = case[0]
        g_y, g_dy = np.zeros_like(y), np.zeros_like(y)
        work, counts = c_residual.rows(*case, g_y, g_dy)
        (c_result, *c_rest), (result, *rest) = _block_both_ways(c_residual, case)
        ref_g_y, ref_g_dy, ref_diag, _ = rest
        assert g_y.tobytes() == ref_g_y.tobytes()
        assert g_dy.tobytes() == ref_g_dy.tobytes()
        assert [r.tobytes() for r in work] == _result_bytes(result)[1]
        assert counts == tuple(ref_diag[k] for k in _residual.COUNTS)
        # Called as residual_block, the C block gives its results too.
        assert _result_bytes(c_result) == _result_bytes(result)
        assert c_rest[2] == ref_diag and c_rest[3] == []
    assert _residual.same_rows(c_residual)


def test_c_residual_matches_numpy_on_hypothesis_blocks(
    c_residual, coeffs, params, cond
):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Outputs around the floor and the operating point, some far out;
    # derivatives of either sign. NaN outputs are clamped; NaN derivatives
    # are not drawn, since NaN payloads need not survive a C compiler's
    # operand order.
    outputs = st.one_of(
        st.floats(-1.0, 3.0), st.sampled_from([CLAMP_EPS, 0.0, -0.0, np.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    slopes = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False))
    config = small_config()

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        st.integers(1, 24).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(n, n + 3),
            st.lists(outputs, min_size=2 * (n + 3), max_size=2 * (n + 3)),
            st.lists(slopes, min_size=2 * (n + 3), max_size=2 * (n + 3)),
        )),
        st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False)),
    )
    def check(block, k5_hat):
        n_c, n, ys, dys = block
        y = np.array(ys).reshape(2, -1)[:, :n].copy()
        dy = np.array(dys).reshape(2, -1)[:, :n].copy()
        case = (y, dy, n_c, k5_hat, 2.0, cond.t_mem0, config, coeffs, params, cond)
        (c_result, c_g_y, c_g_dy, c_diag, c_warned), (
            result, g_y, g_dy, diag, warned
        ) = _block_both_ways(c_residual, case)
        # The C pass raises a flag exactly where numpy warns before its
        # sums, which run in numpy either way.
        rows = c_residual.rows(*case, np.zeros_like(y), np.zeros_like(y))
        in_rows = [m for _, m in warned if "in reduce" not in m]
        assert (rows is None) == bool(in_rows)
        assert c_warned == warned
        assert c_g_y.tobytes() == g_y.tobytes()
        assert c_g_dy.tobytes() == g_dy.tobytes()
        assert _result_bytes(c_result) == _result_bytes(result)
        assert c_diag == diag

    check()


@pytest.mark.parametrize("value", [np.inf, 1e308])
def test_float_fault_reruns_numpy_with_its_warning(c_residual, value):
    # An output of inf or 1e308 makes inf * 0 or an overflow in the
    # residuals: the C block raises a flag and numpy reruns, warning.
    case = list(_residual.check_cases()[0])
    case[0] = case[0].copy()
    case[0][0, 2] = value
    g_y, g_dy = np.zeros_like(case[0]), np.zeros_like(case[0])
    assert c_residual.rows(*case, g_y, g_dy) is None
    (c_result, *c_rest), (result, *rest) = _block_both_ways(c_residual, case)
    assert rest[3], "numpy warns"
    assert c_rest[3] == rest[3]
    assert [a.tobytes() for a in c_rest[:2]] == [a.tobytes() for a in rest[:2]]
    assert _result_bytes(c_result) == _result_bytes(result)
    assert c_rest[2] == rest[2]
    # Under the "error" filter the warning is raised, as numpy raises it.
    errors = []
    for block in (c_residual, residual_block):
        with pytest.raises(RuntimeWarning) as exc:
            block(*case, np.zeros_like(case[0]), np.zeros_like(case[0]))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_train_is_the_same_with_either_residual_block(
    params, cond, small_dataset, c_residual, monkeypatch
):
    cfg = small_config(max_epochs=40, seed=1, checkpoint_every=10)
    runs = []
    for block in (residual_block, c_residual):
        monkeypatch.setattr(_kernel, "_selected_residual", lambda: block)
        saved = []
        net, metrics = train(
            small_dataset, params, cond, cfg,
            checkpoint_hook=lambda epoch, n: saved.append(flatten(n).tobytes()),
        )
        runs.append((
            flatten(net).tobytes(), metrics.loss_history, saved,
            metrics.output_clamped, metrics.chemistry_infeasible,
            metrics.hydroxyl_clamped,
        ))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 4 and runs[0][3] > 0


@pytest.mark.parametrize("layout", [
    "fortran_order", "float32", "big_endian", "read_only_gradient", "three_rows",
    "no_columns", "too_many_columns",
])
def test_c_residual_runs_numpy_on_other_layouts(c_residual, layout):
    case = list(_residual.check_cases()[0])
    y, dy = case[0], case[1]
    g_y, g_dy = np.zeros_like(y), np.zeros_like(y)
    if layout == "fortran_order":
        y = np.asfortranarray(y)
    elif layout == "float32":
        dy = dy.astype(np.float32)
    elif layout == "big_endian":
        y = y.astype(">f8")
    elif layout == "read_only_gradient":
        g_dy.flags.writeable = False
    elif layout == "three_rows":
        y, dy = (np.vstack([a, a[:1]]) for a in (y, dy))
        g_y, g_dy = np.zeros_like(y), np.zeros_like(y)
    elif layout == "no_columns":
        case[2] = 0
    else:
        case[2] = y.shape[1] + 1
    case[:2] = y, dy
    # The C block declines the arrays and writes nothing ...
    assert c_residual.rows(*case, g_y, g_dy) is None
    assert not g_y.any() and not g_dy.any()
    if layout in ("read_only_gradient", "no_columns", "too_many_columns"):
        return  # which numpy refuses, or reads as no columns
    # ... and runs residual_block, which reads them.
    expected_g = np.zeros_like(g_y), np.zeros_like(g_dy)
    expected = residual_block(*case, *expected_g)
    got = c_residual(*case, g_y, g_dy)
    assert _result_bytes(got) == _result_bytes(expected)
    assert [g_y.tobytes(), g_dy.tobytes()] == [a.tobytes() for a in expected_g]


_SELECTED_RESIDUAL = _kernel._selected_residual


def _residual_afresh(monkeypatch, cache, compiler):
    """The residual block a new process would select with this cache
    directory and compiler."""
    monkeypatch.setattr(_kernel, "_CACHE", cache)
    monkeypatch.setattr(_kernel, "_compiler", lambda: compiler)
    monkeypatch.setattr(
        _kernel, "_selected_residual",
        functools.cache(_SELECTED_RESIDUAL.__wrapped__),
    )
    return _kernel.get_residual_block()


@pytest.mark.parametrize("fault", ["compiler_exits_1", "self_check_fails"])
def test_failed_residual_block_selects_numpy_with_the_same_training(
    tmp_path, monkeypatch, capsys, params, cond, small_dataset, c_residual, fault
):
    cfg = small_config(max_epochs=10, seed=4)
    monkeypatch.setattr(_kernel, "_selected_residual", lambda: c_residual)
    net, metrics = train(small_dataset, params, cond, cfg)
    cache = tmp_path / "cache"
    compiler = _kernel._compiler()
    if fault == "compiler_exits_1":
        compiler = [sys.executable, "-c", "raise SystemExit(1)"]
    else:
        # A library whose one reassociated sum changes some bits of the
        # thinning partials.
        source = tmp_path / "_residual.c"
        text = _kernel._RESIDUAL_SOURCE.read_text()
        assert text.count("(s - w + k2) / k3") == 1
        source.write_text(text.replace("(s - w + k2) / k3", "(s - (w - k2)) / k3"))
        monkeypatch.setattr(_kernel, "_RESIDUAL_SOURCE", source)
    capsys.readouterr()
    assert _residual_afresh(monkeypatch, cache, compiler) is residual_block
    assert _kernel.residual_kernel_name() == "python"
    assert capsys.readouterr().err == (
        "pempinn: the C residual block did not build, load or pass its "
        "check; using numpy (same output, slower)\n"
    )
    again, again_metrics = train(small_dataset, params, cond, cfg)
    assert flatten(again).tobytes() == flatten(net).tobytes()
    assert again_metrics.loss_history == metrics.loss_history
    # No temporary file is left behind; the failing library is kept.
    left = [p.suffix for p in cache.iterdir()]
    assert left == ([] if fault == "compiler_exits_1" else [".so"])


def test_c_residual_builds_into_an_empty_cache(tmp_path, monkeypatch, c_residual):
    cache = tmp_path / "cache"
    block = _residual_afresh(monkeypatch, cache, _kernel._compiler())
    assert isinstance(block, _residual.CResidualBlock)
    assert _kernel.residual_kernel_name() == "c"
    [lib] = cache.iterdir()  # the library alone, no temporary file
    assert lib.name.startswith("_residual.") and lib.suffix == ".so"
