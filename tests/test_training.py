import dataclasses

import complex_step
import numpy as np
import pytest
from reference_loss import reference_gradient
from reference_physics import (
    hydroxyl_chain,
    thinning_residual_terms,
    voltage_residual_terms,
)

from pempinn import autodiff
from pempinn.constants import K5_SCALE
from pempinn.degradation import DiagnosticCounters, thinning_rate
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
def test_train_aborts_on_nonfinite_loss(params, cond, small_dataset):
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


def test_gradient_matches_fd_through_full_loss(params, cond, coeffs, small_dataset):
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


def test_gradient_matches_reference_engine(params, cond, coeffs, small_dataset):
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


def test_train_steps_along_composite_loss_gradient(params, cond, coeffs, small_dataset):
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
    params, cond, coeffs, small_dataset, monkeypatch
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
