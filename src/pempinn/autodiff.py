"""Minimal reverse-mode automatic differentiation over numpy payloads.

Training differentiates its loss in closed form on plain arrays, and the
tests pin those closed forms to complex-step derivatives of a plain-numpy
reference (``tests/complex_step.py``), so no command and no oracle runs
this module. It stays, with its own unit tests, because the benchmark's
tracer (``perfbench/spans.py``) patches ``Value.backward``.

* ``Value`` is a node in a dynamically built computation graph. Calling
  :meth:`Value.backward` on a scalar result accumulates d(result)/d(leaf)
  into every leaf's ``grad`` (reverse mode). It has ``+ - * /``,
  negation, ``sqrt``, ``sigmoid``, ``@``, indexing, ``sum`` and ``mean``.

Payloads are python floats or numpy arrays of up to two dimensions: a
weight matrix, an ``(n, 1)`` bias column, an ``(n, N)`` block of
activations at N evaluation points, or a 1-d batch of points. Elementwise
ops broadcast as numpy does, and each gradient is summed back over the
broadcast axes onto its operand's shape; ``@`` and row indexing are the
only ops that mix elements.

Each ``_backward`` closure refers to its own node, so a graph is a web of
reference cycles until :meth:`Value.backward` has run; the sweep drops
every closure after running it, and reference counting then frees the
graph as soon as the caller drops the result.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Value", "BackwardError"]


class BackwardError(RuntimeError):
    """Raised when a backward sweep produces non-finite gradients."""


def _sigmoid_raw(x):
    # Overflow-safe logistic for floats and arrays.
    z = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _reduce_to(grad, data):
    """Sum a broadcast gradient back onto the shape of ``data``.

    Sums over the leading axes ``data`` lacks and over every axis where
    ``data`` has length 1 (an ``(n, 1)`` bias column against ``(n, N)``
    activations, a 0-d scalar against anything). A 0-d gradient
    broadcasts onto any shape and passes through.
    """
    shape = np.shape(data)
    grad_shape = np.shape(grad)
    if grad_shape == shape or grad_shape == ():
        return grad
    lead = len(grad_shape) - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1
    )
    return np.sum(grad, axis=axes, keepdims=True).reshape(shape)


class Value:
    """Reverse-mode node. ``data`` is a float or a numpy array (ndim <= 2)."""

    __slots__ = ("data", "grad", "_backward", "_parents", "_op", "__weakref__")

    # Keep numpy from consuming Value in mixed expressions; python then
    # falls back to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), op="leaf"):
        self.data = data
        self.grad = 0.0
        self._backward = None
        self._parents = parents
        self._op = op

    def __repr__(self):
        return f"Value({self.data!r}, op={self._op})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data + other.data, (self, other), "+")

        def back():
            self.grad = self.grad + _reduce_to(out.grad, self.data)
            other.grad = other.grad + _reduce_to(out.grad, other.data)

        out._backward = back
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data - other.data, (self, other), "-")

        def back():
            self.grad = self.grad + _reduce_to(out.grad, self.data)
            other.grad = other.grad - _reduce_to(out.grad, other.data)

        out._backward = back
        return out

    def __rsub__(self, other):
        return Value(other) - self

    def __neg__(self):
        out = Value(-self.data, (self,), "neg")

        def back():
            self.grad = self.grad - _reduce_to(out.grad, self.data)

        out._backward = back
        return out

    def __mul__(self, other):
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data * other.data, (self, other), "*")

        def back():
            self.grad = self.grad + _reduce_to(out.grad * other.data, self.data)
            other.grad = other.grad + _reduce_to(out.grad * self.data, other.data)

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Value) else Value(other)
        inv = 1.0 / other.data
        out = Value(self.data * inv, (self, other), "/")

        def back():
            self.grad = self.grad + _reduce_to(out.grad * inv, self.data)
            other.grad = other.grad - _reduce_to(
                out.grad * self.data * inv * inv, other.data
            )

        out._backward = back
        return out

    def __rtruediv__(self, other):
        return Value(other) / self

    def __matmul__(self, other):
        """Matrix product of 2-d payloads."""
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data @ other.data, (self, other), "@")

        def back():
            self.grad = self.grad + out.grad @ other.data.T
            other.grad = other.grad + self.data.T @ out.grad

        out._backward = back
        return out

    def __getitem__(self, key):
        """Basic indexing (a row, a column); the gradient scatters back."""
        out = Value(self.data[key], (self,), "getitem")

        def back():
            grad = np.zeros(np.shape(self.data))
            grad[key] = out.grad
            self.grad = self.grad + grad

        out._backward = back
        return out

    # -- elementary functions ----------------------------------------------

    def sqrt(self):
        root = np.sqrt(self.data)
        out = Value(root, (self,), "sqrt")

        def back():
            self.grad = self.grad + _reduce_to(out.grad * 0.5 / root, self.data)

        out._backward = back
        return out

    def sigmoid(self):
        s = _sigmoid_raw(self.data)
        if np.ndim(self.data) == 0:
            s = float(s)
        out = Value(s, (self,), "sigmoid")

        def back():
            self.grad = self.grad + _reduce_to(out.grad * s * (1.0 - s), self.data)

        out._backward = back
        return out

    def sum(self):
        out = Value(float(np.sum(self.data)), (self,), "sum")

        def back():
            # Scalar incoming gradient broadcasts over the batch.
            self.grad = self.grad + np.broadcast_to(out.grad, np.shape(self.data))

        out._backward = back
        return out

    def mean(self):
        return self.sum() * (1.0 / float(np.size(self.data)))

    # -- reverse sweep ------------------------------------------------------

    def backward(self, check_finite=False):
        """Seed d(self)/d(self)=1 and accumulate gradients into all leaves.

        Runs once per graph: every node's closure is dropped after it runs,
        which breaks the node <-> closure cycles so the graph is freed by
        reference counting instead of the cyclic garbage collector.
        """
        if np.ndim(self.data) != 0:
            raise ValueError("backward() requires a scalar root")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = 1.0
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                node._backward = None
            if check_finite and not np.all(np.isfinite(node.grad)):
                raise BackwardError(
                    f"non-finite gradient at node type '{node._op}'"
                )
