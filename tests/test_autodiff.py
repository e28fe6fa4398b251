import gc
import math
import weakref

import numpy as np
import pytest

from pempinn.autodiff import (
    BackwardError,
    Dual,
    Value,
    matmul,
    maximum,
    primal,
    sigmoid,
    sqrt,
    where,
)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


# -- dual number laws ---------------------------------------------------------


def test_dual_product_rule():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, da, b, db = rng.uniform(-2, 2, 4)
        out = Dual(a, da) * Dual(b, db)
        assert out.primal == pytest.approx(a * b, rel=1e-14)
        assert out.tangent == pytest.approx(a * db + da * b, rel=1e-12, abs=1e-14)


def test_dual_quotient_rule():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, da, db = rng.uniform(-2, 2, 3)
        b = rng.uniform(0.5, 3.0)
        out = Dual(a, da) / Dual(b, db)
        assert out.primal == pytest.approx(a / b, rel=1e-14)
        assert out.tangent == pytest.approx(
            (da * b - a * db) / b**2, rel=1e-12, abs=1e-14
        )


def test_dual_chain_rules_against_symbolic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(0.1, 2.5)
        t = rng.uniform(-2, 2)
        d = Dual(x, t)
        assert sqrt(d).tangent == pytest.approx(t * 0.5 / math.sqrt(x), rel=1e-12)
        s = 1.0 / (1.0 + math.exp(-x))
        assert sigmoid(d).tangent == pytest.approx(t * s * (1 - s), rel=1e-12)


def test_dual_sub_neg_rtruediv():
    d = Dual(2.0, 1.0)
    assert (-d).tangent == -1.0
    assert (d - 1.0).primal == 1.0 and (d - 1.0).tangent == 1.0
    assert (2.0 / d).tangent == pytest.approx(-0.5, rel=1e-14)


# -- reverse mode -------------------------------------------------------------


def test_value_gradients_match_finite_differences():
    def build(x, y):
        r = x * y + sigmoid(x / y) - sqrt(x) * (2.0 - y) + (-y)
        return r * r

    x = Value(1.3)
    y = Value(0.7)
    out = build(x, y)
    out.backward()

    def f_x(v):
        return float(primal(build(Value(v), Value(0.7))))

    def f_y(v):
        return float(primal(build(Value(1.3), Value(v))))

    assert x.grad == pytest.approx(central_diff(f_x, 1.3), rel=1e-8)
    assert y.grad == pytest.approx(central_diff(f_y, 0.7), rel=1e-8)


def test_value_exact_quadratic_gradient():
    x = Value(3.0)
    (x * x).backward()
    assert x.grad == 6.0


def test_value_shared_subexpression():
    x = Value(2.0)
    y = x * x + x  # dy/dx = 2x + 1
    y.backward()
    assert x.grad == 5.0


def test_batched_payload_reduces_onto_scalar_leaf():
    w = Value(0.5)
    t = np.linspace(0.0, 1.0, 7)
    d = sigmoid(w * t) - t
    loss = (d * d).mean()

    def f(v):
        s = 1 / (1 + np.exp(-v * t))
        return float(np.mean((s - t) ** 2))

    loss.backward()
    assert loss.data == pytest.approx(f(0.5), rel=1e-14)
    assert w.grad == pytest.approx(central_diff(f, 0.5), rel=1e-8)


def test_where_routes_gradients_by_branch():
    x = Value(np.array([1.0, -2.0, 3.0]))
    out = where(np.array([True, False, True]), x * 2.0, x * 10.0)
    out.sum().backward()
    assert np.allclose(x.grad, [2.0, 10.0, 2.0])


def test_maximum_subgradient():
    x = Value(np.array([0.5, -0.5]))
    maximum(x, 0.0).sum().backward()
    assert np.allclose(x.grad, [1.0, 0.0])


def test_sum_and_mean():
    x = Value(np.array([1.0, 2.0, 3.0]))
    assert x.sum().data == 6.0
    assert x.mean().data == 2.0
    m = x.mean()
    m.backward()
    assert np.allclose(x.grad, [1 / 3, 1 / 3, 1 / 3])


def test_backward_requires_scalar_root():
    x = Value(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backward_reports_nonfinite_node():
    x = Value(np.float64(0.0))
    out = sqrt(x) * 1.0  # d sqrt(x)/dx = 0.5/0: backward produces inf
    with pytest.raises(BackwardError, match="node type"):
        out.backward(check_finite=True)


def test_numpy_left_operand_defers_to_value():
    x = Value(2.0)
    out = np.float64(3.0) * x
    assert isinstance(out, Value)
    out2 = np.array([1.0, 2.0]) * x
    assert isinstance(out2, Value)
    assert np.allclose(out2.data, [2.0, 4.0])


# -- matrix payloads ----------------------------------------------------------


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 5))
    c = rng.normal(size=(3, 5))

    def loss(a, b):
        return (sigmoid(a @ b) * c).sum()

    a, b = Value(a0), Value(b0)
    loss(a, b).backward()
    for leaf, base, f in (
        (a, a0, lambda x: loss(x, b0)),
        (b, b0, lambda x: loss(a0, x)),
    ):
        fd = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            e = np.zeros_like(base)
            e[idx] = 1e-6
            fd[idx] = (f(base + e) - f(base - e)) / 2e-6
        assert leaf.grad.shape == base.shape
        assert np.allclose(leaf.grad, fd, rtol=1e-7, atol=1e-9)


def test_getitem_scatters_gradient_into_its_row():
    x = Value(np.arange(6.0).reshape(2, 3))
    out = (x[1] * np.array([1.0, 2.0, 3.0])).sum() + x[0, 2] * 5.0
    out.backward()
    assert np.array_equal(x.grad, [[0.0, 0.0, 5.0], [1.0, 2.0, 3.0]])


def test_reduce_to_bias_column_and_scalar_leaf():
    rng = np.random.default_rng(5)
    acts = rng.normal(size=(4, 7))
    weight = rng.normal(size=(4, 7))
    bias = Value(rng.normal(size=(4, 1)))
    k = Value(np.float64(0.3))
    ((acts + bias) * k * weight).sum().backward()
    assert bias.grad.shape == (4, 1)
    assert np.allclose(bias.grad[:, 0], 0.3 * weight.sum(axis=1), rtol=1e-14)
    assert np.shape(k.grad) == ()
    expected = float(np.sum((acts + bias.data) * weight))
    assert float(k.grad) == pytest.approx(expected, rel=1e-13)


def test_forward_over_reverse_through_matmul():
    # y = W @ x(s) with x carrying its s-derivative as a Dual of Values;
    # L = sum(c * dy/ds) = sum(c * (W @ x')) gives dL/dW = c x'^T and
    # dL/dx' = W^T c, and the primal path stays untouched.
    rng = np.random.default_rng(6)
    w0 = rng.normal(size=(3, 2))
    p0 = rng.normal(size=(2, 4))
    t0 = rng.normal(size=(2, 4))
    c = rng.normal(size=(3, 4))
    w, p, t = Value(w0), Value(p0), Value(t0)
    y = matmul(w, Dual(p, t))
    assert isinstance(y, Dual)
    assert np.array_equal(y.primal.data, w0 @ p0)
    (y.tangent * c).sum().backward()
    assert np.allclose(w.grad, c @ t0.T, rtol=1e-13)
    assert np.allclose(t.grad, w0.T @ c, rtol=1e-13)
    assert np.all(np.asarray(p.grad) == 0.0)


def test_backward_frees_graph_without_cyclic_gc():
    x = Value(np.linspace(0.1, 1.0, 5))
    inner = sigmoid(x * 2.0)
    probe = weakref.ref(inner)
    loss = (inner * inner).sum()
    del inner
    gc.disable()
    try:
        loss.backward()
        del loss
        assert probe() is None
    finally:
        gc.enable()
    assert x.grad.shape == (5,)


# -- forward over reverse -----------------------------------------------------


def test_forward_over_reverse_mixed_derivative():
    # f(p, t) = sigmoid(p * t); tangent tracks d/dt, backward gives
    # d(df/dt)/dp, which has the closed form s(1-s)(1 + pt(1-2s)).
    p = Value(0.8)
    t_val = 1.7
    d = Dual(t_val, 1.0)
    out = sigmoid(p * d)
    dfdt = out.tangent  # Value: p * s * (1 - s)
    dfdt.backward()
    s = 1 / (1 + math.exp(-0.8 * t_val))
    expected = s * (1 - s) * (1 + 0.8 * t_val * (1 - 2 * s))
    assert p.grad == pytest.approx(expected, rel=1e-12)
    assert float(dfdt.data) == pytest.approx(0.8 * s * (1 - s), rel=1e-12)


def test_dual_of_values_matches_plain_dual():
    # The same expression evaluated with raw floats and with Value payloads
    # must agree bitwise (same numpy op sequence underneath).
    def expr(d):
        return sigmoid(d * 0.3 + 1.0) / (d + 2.0) + sqrt(-d + 3.0)

    raw = expr(Dual(0.9, 1.0))
    lifted = expr(Dual(Value(0.9), Value(1.0)))
    assert float(primal(lifted)) == raw.primal
    assert float(primal(lifted.tangent)) == raw.tangent


def test_determinism_bitwise():
    t = np.linspace(0.0, 1.0, 50)

    def run():
        w = Value(0.37)
        d = sigmoid(w * t) - 0.5
        loss = (d * d).mean()
        loss.backward()
        return loss.data, w.grad

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert g1 == g2
