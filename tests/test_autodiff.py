import gc
import weakref

import numpy as np
import pytest

from pempinn.autodiff import BackwardError, Value


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_value_gradients_match_finite_differences():
    def build(x, y):
        r = x * y + (x / y).sigmoid() - x.sqrt() * (2.0 - y) + (-y)
        return r * r

    x = Value(1.3)
    y = Value(0.7)
    out = build(x, y)
    out.backward()

    def f_x(v):
        return float(build(Value(v), Value(0.7)).data)

    def f_y(v):
        return float(build(Value(1.3), Value(v)).data)

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
    d = (w * t).sigmoid() - t
    loss = (d * d).mean()

    def f(v):
        s = 1 / (1 + np.exp(-v * t))
        return float(np.mean((s - t) ** 2))

    loss.backward()
    assert loss.data == pytest.approx(f(0.5), rel=1e-14)
    assert w.grad == pytest.approx(central_diff(f, 0.5), rel=1e-8)


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
    out = x.sqrt() * 1.0  # d sqrt(x)/dx = 0.5/0: backward produces inf
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
        return ((a @ b).sigmoid() * c).sum()

    a, b = Value(a0), Value(b0)
    loss(a, b).backward()
    for leaf, base, f in (
        (a, a0, lambda x: loss(Value(x), Value(b0)).data),
        (b, b0, lambda x: loss(Value(a0), Value(x)).data),
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


def test_backward_frees_graph_without_cyclic_gc():
    x = Value(np.linspace(0.1, 1.0, 5))
    inner = (x * 2.0).sigmoid()
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


def test_determinism_bitwise():
    t = np.linspace(0.0, 1.0, 50)

    def run():
        w = Value(0.37)
        d = (w * t).sigmoid() - 0.5
        loss = (d * d).mean()
        loss.backward()
        return loss.data, w.grad

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert g1 == g2
