import complex_step
import numpy as np
import pytest
import reference_physics
from reference_loss import reference_gradient

from pempinn.autodiff import Value
from pempinn.network import (
    LAYER_SIZES,
    LiftedParameters,
    NetworkParameters,
    flatten,
    init_parameters,
    load_checkpoint,
    mlp_forward,
    mlp_with_tangent,
    predict,
    save_checkpoint,
    unflatten,
)

SCALE = 8.0e5
T_REF = 0.0175


def make_net(seed=0):
    return init_parameters(seed, input_scale=SCALE, t_mem_ref=T_REF)


def test_parameter_count_is_88():
    net = make_net()
    assert net.n_parameters == 88
    assert net.layer_sizes == LAYER_SIZES
    assert flatten(net).size == 88


def test_init_deterministic_per_seed():
    a, b = make_net(3), make_net(3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(make_net(4).weights[0], a.weights[0])


def test_init_k5_starts_at_zero():
    assert make_net().k5_hat == 0.0


def test_init_weights_within_glorot_bounds():
    net = make_net(9)
    for w, (fan_in, fan_out) in zip(
        net.weights, zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])
    ):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
    for b in net.biases:
        assert np.all(b == 0.0)


def test_zero_output_weights_give_zero_outputs():
    net = make_net(0)
    weights = list(net.weights)
    biases = list(net.biases)
    weights[-1] = np.zeros_like(weights[-1])
    zeroed = NetworkParameters(
        weights=tuple(weights),
        biases=tuple(biases),
        k5_hat=0.0,
        input_scale=SCALE,
        v_ref=2.0,
        t_mem_ref=T_REF,
    )
    v, m = predict(zeroed, 1234.5)
    assert v == 0.0 and m == 0.0


def test_toy_single_neuron_forward():
    # 1 -> 1 -> 1 with unit weight, zero bias: y = w_out * sigmoid(tau).
    weights = (np.array([[1.0]]), np.array([[0.7]]))
    biases = (np.zeros(1), np.zeros(1))
    tau = 0.35
    y = mlp_forward(weights, biases, np.array([tau]))
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(0.7 / (1 + np.exp(-tau)), rel=1e-14)
    ref, _ = reference_physics.mlp_forward(weights, biases, tau)
    assert ref[0, 0] == pytest.approx(0.7 / (1 + np.exp(-tau)), rel=1e-14)


def test_toy_derivative_quarter_slope_at_origin():
    # y = sigmoid(w * tau): dy/dt at tau=0 is w/4 / input_scale.
    w_in = 1.3
    scale = 50.0
    weights = (np.array([[w_in]]), np.array([[1.0]]))
    biases = (np.zeros(1), np.zeros(1))
    _, dy, _ = mlp_with_tangent(weights, biases, np.array([0.0]))
    assert dy[0, 0] / scale == pytest.approx(w_in / 4.0 / scale, rel=1e-13)
    slope = complex_step.derivative(
        lambda tau: reference_physics.mlp_forward(weights, biases, tau)[0], 0.0
    )
    assert slope[0, 0] / scale == pytest.approx(w_in / 4.0 / scale, rel=1e-13)


def time_derivatives(net, t):
    """dV/dt and dt_mem/dt: the tau-tangent times 1/input_scale, in
    physical units."""
    tau = np.atleast_1d(np.asarray(t, dtype=float)) / net.input_scale
    _, (dyv, dym), _ = mlp_with_tangent(net.weights, net.biases, tau)
    rate = 1.0 / net.input_scale
    return net.v_ref * rate * dyv, net.t_mem_ref * rate * dym


def test_time_derivative_matches_finite_differences():
    net = make_net(5)
    t = np.linspace(0.0, SCALE, 9)
    dv, dm = time_derivatives(net, t)
    h = 1e-4 * SCALE
    v_hi, m_hi = predict(net, t + h)
    v_lo, m_lo = predict(net, t - h)
    assert np.allclose(dv, (v_hi - v_lo) / (2 * h), rtol=1e-7, atol=1e-16)
    assert np.allclose(dm, (m_hi - m_lo) / (2 * h), rtol=1e-7, atol=1e-16)


def test_constant_network_zero_derivative():
    net = make_net(0)
    weights = list(net.weights)
    weights[-1] = np.zeros_like(weights[-1])
    frozen = NetworkParameters(
        weights=tuple(weights),
        biases=net.biases,
        k5_hat=0.0,
        input_scale=SCALE,
        v_ref=2.0,
        t_mem_ref=T_REF,
    )
    dv, dm = time_derivatives(frozen, 777.0)
    assert np.all(dv == 0.0) and np.all(dm == 0.0)


def test_flatten_unflatten_roundtrip():
    net = make_net(11)
    vec = flatten(net)
    back = unflatten(vec, net)
    assert np.array_equal(flatten(back), vec)
    for wa, wb in zip(back.weights, net.weights):
        assert np.array_equal(wa, wb)
    assert back.k5_hat == net.k5_hat


def test_unflatten_rejects_wrong_size():
    net = make_net(0)
    with pytest.raises(ValueError, match="88"):
        unflatten(np.zeros(87), net)


def test_checkpoint_roundtrip_preserves_outputs(tmp_path):
    net = make_net(13)
    net = unflatten(flatten(net) + 0.01, net)  # move k5_hat off zero too
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    t = np.linspace(0.0, SCALE, 17)
    v1, m1 = predict(net, t)
    v2, m2 = predict(loaded, t)
    assert np.array_equal(v1, v2)
    assert np.array_equal(m1, m2)
    assert loaded.k5_hat == net.k5_hat


def test_checkpoint_with_bad_arrays_is_rejected(tmp_path):
    import json

    from pempinn.errors import ArtifactFormatError

    path = tmp_path / "ckpt.json"
    save_checkpoint(make_net(13), path)
    good = json.loads(path.read_text())
    bad_shape = dict(good, biases=good["biases"][:1] + [[0.0]] + good["biases"][2:])
    bad_value = dict(good, weights=[[[float("nan")]] * 10] + good["weights"][1:])
    for payload in (bad_shape, bad_value, dict(good, k5_hat="x")):
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactFormatError, match="ckpt.json"):
            load_checkpoint(path)


def gradient(params, build_loss):
    """Reverse-mode gradient of ``build_loss(lifted)``, a scalar Value,
    over every parameter, by one backward sweep."""
    lifted = LiftedParameters(params)
    loss = build_loss(lifted)
    if not isinstance(loss, Value):
        raise TypeError("the loss must be an autodiff Value")
    loss.backward()
    return lifted.gradients()


def lifted_forward(lifted, tau):
    """The network's forward pass as a graph over the lifted leaves."""
    a = np.reshape(tau, (1, -1))
    for layer, (w, b) in enumerate(zip(lifted.weights, lifted.biases)):
        a = w @ a + b
        if layer < len(lifted.weights) - 1:
            a = a.sigmoid()
    return a


def test_gradient_isolated_k5_quadratic():
    net = make_net(1)
    net = unflatten(flatten(net) * 0.0 + 0.25, net)  # all params 0.25
    g = gradient(net, lambda lifted: lifted.k5_hat * lifted.k5_hat)
    assert g[-1] == pytest.approx(0.5, rel=1e-14)
    assert np.all(g[:-1] == 0.0)


def test_gradient_of_summed_outputs_matches_fd():
    net = make_net(2)
    t = np.linspace(0.0, SCALE, 21)
    tau = t / SCALE

    def build_loss(lifted):
        y = lifted_forward(lifted, tau)
        return (y[0] * y[0]).sum() + (y[1] * y[1]).sum()

    g = gradient(net, build_loss)

    vec = flatten(net)

    def loss_at(v):
        nn = unflatten(v, net)
        y = mlp_forward(nn.weights, nn.biases, tau)
        return float(np.sum(y[0] ** 2) + np.sum(y[1] ** 2))

    h = 1e-6
    for i in range(0, vec.size, 7):  # sample coordinates
        e = np.zeros_like(vec)
        e[i] = h
        fd = (loss_at(vec + e) - loss_at(vec - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_gradient_rejects_non_value_loss():
    net = make_net(0)
    with pytest.raises(TypeError):
        gradient(net, lambda lifted: 3.14)


def test_lifted_order_matches_flatten():
    net = make_net(6)
    lifted = LiftedParameters(net)
    assert len(lifted.leaves) == 7
    assert np.array_equal(
        np.concatenate([np.ravel(v.data) for v in lifted.leaves]), flatten(net)
    )


def test_forward_identical_between_plain_and_lifted():
    net = make_net(8)
    tau = np.linspace(0.0, 1.0, 33)
    plain = predict(net, tau * SCALE)
    y = lifted_forward(LiftedParameters(net), tau).data
    assert np.array_equal(y[0] * net.v_ref, plain[0])
    assert np.array_equal(y[1] * net.t_mem_ref, plain[1])


def test_physics_off_gradient_has_zero_k5_entry(
    params, cond, coeffs, small_dataset
):
    from pempinn.training import TrainingConfig, composite_loss

    net = make_net(3)
    cfg = TrainingConfig(physics_enabled=False, n_collocation=8)
    for g in (
        composite_loss(net, small_dataset, cfg, coeffs, params, cond)[1],
        reference_gradient(net, small_dataset, cfg, coeffs, params, cond),
    ):
        assert g.shape == (88,)
        assert g[-1] == 0.0
        assert np.all(g[:-1] != 0.0)


def test_blocked_predict_matches_per_neuron_reference():
    # The per-neuron loop the matrix form replaced, as the reference; the
    # input spans more than one predict block.
    from pempinn.network import PREDICT_BLOCK

    net = make_net(4)
    t = np.linspace(0.0, SCALE, PREDICT_BLOCK + 17)
    acts = [t / SCALE]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        acts = [
            b[j] + sum(w[j, k] * acts[k] for k in range(w.shape[1]))
            for j in range(w.shape[0])
        ]
        if layer < len(net.weights) - 1:
            acts = [1.0 / (1.0 + np.exp(-a)) for a in acts]
    v, m = predict(net, t)
    assert v.shape == m.shape == t.shape
    assert np.allclose(v, net.v_ref * acts[0], rtol=1e-13, atol=0.0)
    assert np.allclose(m, net.t_mem_ref * acts[1], rtol=1e-13, atol=1e-18)


def test_tangent_forward_matches_dual_forward():
    # The tangent pass bit for bit against the reference's recursion, and
    # that recursion against a complex step in tau.
    net = make_net(7)
    tau = np.linspace(-0.2, 1.3, 41)
    y, dy, _ = mlp_with_tangent(net.weights, net.biases, tau)
    ref_y, ref_dy = reference_physics.mlp_forward(net.weights, net.biases, tau)
    assert y.shape == dy.shape == (2, tau.size)
    assert np.array_equal(mlp_forward(net.weights, net.biases, tau), y)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(dy, ref_dy)
    slope = complex_step.derivative(
        lambda t: reference_physics.mlp_forward(net.weights, net.biases, t)[0], tau
    )
    assert np.allclose(ref_dy, slope, rtol=1e-13, atol=1e-15)


def test_tangent_vjp_matches_finite_differences():
    from pempinn.network import mlp_with_tangent_vjp

    net = make_net(8)
    tau = np.linspace(0.0, 1.0, 13)
    rng = np.random.default_rng(0)
    g_y = rng.normal(size=(2, tau.size))
    g_dy = rng.normal(size=(2, tau.size))
    _, _, cache = mlp_with_tangent(net.weights, net.biases, tau)
    g = mlp_with_tangent_vjp(net.weights, cache, g_y, g_dy)
    assert g.shape == (87,)

    vec = flatten(net)

    def objective(v):
        nn = unflatten(v, net)
        y, dy, _ = mlp_with_tangent(nn.weights, nn.biases, tau)
        return float(np.sum(g_y * y) + np.sum(g_dy * dy))

    h = 1e-6
    for i in range(87):
        e = np.zeros_like(vec)
        e[i] = h
        fd = (objective(vec + e) - objective(vec - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)
