"""Minimal automatic differentiation over numpy payloads.

Training differentiates its loss in closed form on plain arrays, and no
command runs this module; it is the reference those closed forms are
pinned to in the tests. The generic definitions in
``tests/reference_physics.py`` (the network forward pass, the physics
residuals, the radical chain) are written against its front-ends, so one
definition runs on floats, arrays, ``Value`` and ``Dual``. It has the ops
that code and the test-reference loss use and no others: ``+ - * /``,
negation, ``sqrt``, ``sigmoid``, ``where``/``maximum``, ``@``, indexing,
``sum`` and ``mean``.

* ``Dual`` carries a ``(primal, tangent)`` pair through arithmetic, so the
  tangent of the output is the directional derivative along the seeded
  input direction (forward mode). The tangent may carry extra leading
  axes: a ``(k, N)`` tangent over an ``(N,)`` primal tracks k directions
  at once, as the tests' ``(5, N)`` block of residual partials does.
* ``Value`` is a node in a dynamically built computation graph. Calling
  :meth:`Value.backward` on a scalar result accumulates d(result)/d(leaf)
  into every leaf's ``grad`` (reverse mode).

A ``Dual`` whose components are ``Value`` nodes gives forward-over-reverse:
the tangent tracks a derivative with respect to the network input while the
graph underneath still exposes parameter gradients through one backward
sweep, as in the tests' reference loss.

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

__all__ = [
    "Value",
    "Dual",
    "BackwardError",
    "sqrt",
    "sigmoid",
    "where",
    "maximum",
    "matmul",
    "primal",
]


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
        if isinstance(other, Dual):
            return NotImplemented
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data + other.data, (self, other), "+")

        def back():
            self.grad = self.grad + _reduce_to(out.grad, self.data)
            other.grad = other.grad + _reduce_to(out.grad, other.data)

        out._backward = back
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
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
        if isinstance(other, Dual):
            return NotImplemented
        other = other if isinstance(other, Value) else Value(other)
        out = Value(self.data * other.data, (self, other), "*")

        def back():
            self.grad = self.grad + _reduce_to(out.grad * other.data, self.data)
            other.grad = other.grad + _reduce_to(out.grad * self.data, other.data)

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
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
        if isinstance(other, Dual):
            return NotImplemented
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


class Dual:
    """Forward-mode pair. Components may be floats, arrays, or Values."""

    __slots__ = ("primal", "tangent")
    __array_ufunc__ = None

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.primal + other.primal, self.tangent + other.tangent)
        return Dual(self.primal + other, self.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.primal - other.primal, self.tangent - other.tangent)
        return Dual(self.primal - other, self.tangent)

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.primal * other.primal,
                self.primal * other.tangent + self.tangent * other.primal,
            )
        return Dual(self.primal * other, self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.primal
            return Dual(
                self.primal * inv,
                (self.tangent - self.primal * inv * other.tangent) * inv,
            )
        return Dual(self.primal / other, self.tangent / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.primal
        return Dual(other * inv, -other * inv * inv * self.tangent)

    def sqrt(self):
        root = sqrt(self.primal)
        return Dual(root, self.tangent * 0.5 / root)

    def sigmoid(self):
        s = sigmoid(self.primal)
        return Dual(s, self.tangent * (s * (1.0 - s)))

    def __getitem__(self, key):
        return Dual(self.primal[key], self.tangent[key])


# -- generic front-ends: dispatch on the payload type -------------------------


def sqrt(x):
    if isinstance(x, (Value, Dual)):
        return x.sqrt()
    return np.sqrt(x)


def sigmoid(x):
    if isinstance(x, (Value, Dual)):
        return x.sigmoid()
    s = _sigmoid_raw(x)
    return float(s) if np.ndim(x) == 0 else s


def primal(x):
    """Strip Dual/Value wrappers down to the raw float or array."""
    while isinstance(x, (Value, Dual)):
        x = x.primal if isinstance(x, Dual) else x.data
    return x


def where(mask, a, b):
    """Branchless select on a raw boolean mask (the mask carries no gradient)."""
    mask = np.asarray(mask, dtype=bool)
    if isinstance(a, Dual) or isinstance(b, Dual):
        pa, ta = (a.primal, a.tangent) if isinstance(a, Dual) else (a, 0.0)
        pb, tb = (b.primal, b.tangent) if isinstance(b, Dual) else (b, 0.0)
        return Dual(where(mask, pa, pb), where(mask, ta, tb))
    if isinstance(a, Value) or isinstance(b, Value):
        a = a if isinstance(a, Value) else Value(a)
        b = b if isinstance(b, Value) else Value(b)
        out = Value(np.where(mask, a.data, b.data), (a, b), "where")
        keep = mask.astype(float)
        drop = 1.0 - keep

        def back():
            a.grad = a.grad + _reduce_to(out.grad * keep, a.data)
            b.grad = b.grad + _reduce_to(out.grad * drop, b.data)

        out._backward = back
        return out
    picked = np.where(mask, a, b)
    if np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(mask) == 0:
        return float(picked)
    return picked


def maximum(x, floor):
    """max(x, floor) with subgradient 0 on the clamped side."""
    return where(primal(x) > primal(floor), x, floor)


def matmul(a, b):
    """``a @ b`` for arrays and Values; a Dual right operand maps to
    ``Dual(a @ primal, a @ tangent)``, since the product is linear in it."""
    if isinstance(b, Dual):
        return Dual(a @ b.primal, a @ b.tangent)
    return a @ b

