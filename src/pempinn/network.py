"""Two-output MLP surrogate with a trainable degradation-rate scalar.

The network maps normalized time tau = t/input_scale through sigmoid hidden
layers to two affine outputs, de-normalized to a voltage and a membrane
thickness. All quantities seen by the optimizer are O(1): raw scales
(8e5 hours, 0.0175 cm) would make the problem badly conditioned.

A single extra trainable scalar ``k5_hat`` (the normalized attack-rate
constant, physical value k5_hat * 1e3 m3/(mol s)) lives alongside the
weights so one optimizer updates everything jointly.

The forward pass is one ``W @ a + b`` per layer over an ``(n, N)`` block of
activations, N being the number of evaluation points. It is written
generically: weights may be numpy arrays or
:class:`~pempinn.autodiff.Value` leaves (:class:`LiftedParameters` holds 7
of them: W1, b1, W2, b2, W3, b3 and k5_hat), and the input may be a float,
a 1-d array of times, or a :class:`~pempinn.autodiff.Dual` of either (for
time derivatives). The same code therefore serves plain prediction,
finite-difference oracles, and the differentiable training path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import BackwardError, Dual, Value, matmul, primal, sigmoid
from .errors import ArtifactFormatError, ConfigError

__all__ = [
    "LAYER_SIZES",
    "NetworkParameters",
    "LiftedParameters",
    "init_parameters",
    "mlp_forward",
    "predict",
    "predict_with_time_derivative",
    "gradient",
    "flatten",
    "unflatten",
    "save_checkpoint",
    "load_checkpoint",
]

LAYER_SIZES = (1, 10, 5, 2)

DEFAULT_V_REF = 2.0

# Evaluation points per forward pass in predict(): bounds the activation
# blocks of a large test split to a few hundred kB each.
PREDICT_BLOCK = 4096

CHECKPOINT_FORMAT = "pempinn-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkParameters:
    """Weights, biases, the trainable k5_hat, and the normalization scales."""

    weights: tuple          # per layer, shape (fan_out, fan_in)
    biases: tuple           # per layer, shape (fan_out,)
    k5_hat: float
    input_scale: float      # hours
    v_ref: float            # volts
    t_mem_ref: float        # cm

    @property
    def layer_sizes(self):
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases)) + 1


def init_parameters(
    seed: int,
    input_scale: float,
    t_mem_ref: float,
    v_ref: float = DEFAULT_V_REF,
    layer_sizes=LAYER_SIZES,
) -> NetworkParameters:
    """Glorot-uniform weights, zero biases, and k5_hat = 0 (no prior).

    Deterministic per seed.
    """
    if input_scale <= 0.0 or t_mem_ref <= 0.0 or v_ref <= 0.0:
        raise ConfigError("scales", "normalization scales must be positive")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        w.setflags(write=False)
        b.setflags(write=False)
        weights.append(w)
        biases.append(b)
    return NetworkParameters(
        weights=tuple(weights),
        biases=tuple(biases),
        k5_hat=0.0,
        input_scale=float(input_scale),
        v_ref=float(v_ref),
        t_mem_ref=float(t_mem_ref),
    )


def mlp_forward(weights, biases, x):
    """Generic forward pass; sigmoid hidden layers, affine output layer.

    ``x`` is a float or a 1-d array of points (or a Dual of either); it is
    laid out as one ``(1, N)`` row and each layer maps ``(fan_in, N)`` to
    ``(fan_out, N)``. Returns one output per network output, each in the
    shape of ``x``. Bias leaves of LiftedParameters are ``(n, 1)`` columns
    already; plain ``(n,)`` biases are reshaped to columns here.
    """
    a = _as_row(x)
    cols = slice(None) if np.ndim(primal(x)) else 0
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = matmul(w, a) + (b if isinstance(b, Value) else np.reshape(b, (-1, 1)))
        if layer < last:
            a = sigmoid(a)
    return [a[i, cols] for i in range(np.shape(primal(weights[-1]))[0])]


def _as_row(x):
    if isinstance(x, Dual):
        p = np.reshape(x.primal, (1, -1))
        return Dual(p, np.broadcast_to(x.tangent, p.shape))
    return np.reshape(x, (1, -1))


def predict(params: NetworkParameters, t):
    """Network outputs in physical units: (voltage V, thickness cm).

    Arrays are evaluated in blocks of PREDICT_BLOCK points, so memory stays
    flat however long the input is.
    """
    tau = t / params.input_scale
    if np.ndim(tau) == 0:
        y_v, y_m = mlp_forward(params.weights, params.biases, tau)
    else:
        blocks = [
            mlp_forward(params.weights, params.biases, tau[i : i + PREDICT_BLOCK])
            for i in range(0, max(len(tau), 1), PREDICT_BLOCK)
        ]
        y_v = np.concatenate([y[0] for y in blocks])
        y_m = np.concatenate([y[1] for y in blocks])
    return params.v_ref * y_v, params.t_mem_ref * y_m


def predict_with_time_derivative(params: NetworkParameters, t):
    """Outputs and their time derivatives, ((V, t_mem), (dV/dt, dt_mem/dt)).

    The derivative is exact: a dual number seeded with d(tau)/dt =
    1/input_scale is pushed through the forward pass.
    """
    tau = Dual(t / params.input_scale, 1.0 / params.input_scale)
    y = mlp_forward(params.weights, params.biases, tau)
    v = params.v_ref * y[0]
    m = params.t_mem_ref * y[1]
    return (v.primal, m.primal), (v.tangent, m.tangent)


class LiftedParameters:
    """NetworkParameters re-expressed as 7 array autodiff leaves.

    The leaves are W1, b1, W2, b2, W3, b3 and k5_hat, in flatten() order;
    biases are lifted as ``(n, 1)`` columns so they broadcast over points.
    """

    def __init__(self, params: NetworkParameters):
        self.source = params
        self.input_scale = params.input_scale
        self.v_ref = params.v_ref
        self.t_mem_ref = params.t_mem_ref
        self.weights = [Value(w) for w in params.weights]
        self.biases = [Value(np.reshape(b, (-1, 1))) for b in params.biases]
        self.k5_hat = Value(float(params.k5_hat))
        self.leaves = [
            leaf for pair in zip(self.weights, self.biases) for leaf in pair
        ] + [self.k5_hat]

    def gradients(self) -> np.ndarray:
        """Gradient vector in flatten() order; a leaf the loss did not reach
        (k5_hat without physics terms) contributes zeros."""
        return np.concatenate([
            np.ravel(v.grad) if np.ndim(v.grad) else np.full(np.size(v.data), v.grad)
            for v in self.leaves
        ])

    def forward(self, x):
        return mlp_forward(self.weights, self.biases, x)


def flatten(params: NetworkParameters) -> np.ndarray:
    """Parameter vector in canonical order (W1, b1, W2, b2, ..., k5_hat)."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(np.asarray(w).ravel())
        parts.append(np.asarray(b))
    parts.append(np.array([params.k5_hat]))
    return np.concatenate(parts)


def unflatten(vec: np.ndarray, template: NetworkParameters) -> NetworkParameters:
    """Inverse of :func:`flatten`, reusing the template's shapes and scales."""
    if vec.size != template.n_parameters:
        raise ValueError(
            f"expected {template.n_parameters} parameters, got {vec.size}"
        )
    weights = []
    biases = []
    pos = 0
    for w, b in zip(template.weights, template.biases):
        nw = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        nb = vec[pos : pos + b.size].copy()
        pos += b.size
        nw.setflags(write=False)
        nb.setflags(write=False)
        weights.append(nw)
        biases.append(nb)
    return NetworkParameters(
        weights=tuple(weights),
        biases=tuple(biases),
        k5_hat=float(vec[pos]),
        input_scale=template.input_scale,
        v_ref=template.v_ref,
        t_mem_ref=template.t_mem_ref,
    )


def gradient(params: NetworkParameters, loss_builder) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss over all parameters.

    ``loss_builder(lifted)`` must build the loss from the lifted parameters
    using autodiff-compatible operations; the result is exact to floating
    point for the composed graph (including forward-over-reverse paths).
    """
    lifted = LiftedParameters(params)
    loss = loss_builder(lifted)
    if not isinstance(loss, Value):
        raise TypeError("loss builder must return an autodiff Value")
    if not np.isfinite(loss.data):
        raise BackwardError(f"loss evaluated to non-finite value {loss.data}")
    loss.backward()
    grads = lifted.gradients()
    if not np.all(np.isfinite(grads)):
        # Diagnostic rerun names the first offending node type.
        fresh = LiftedParameters(params)
        loss_builder(fresh).backward(check_finite=True)
        raise BackwardError("non-finite gradient of unknown origin")
    return grads


def save_checkpoint(params: NetworkParameters, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "weights": [np.asarray(w).tolist() for w in params.weights],
        "biases": [np.asarray(b).tolist() for b in params.biases],
        "k5_hat": params.k5_hat,
        "input_scale": params.input_scale,
        "v_ref": params.v_ref,
        "t_mem_ref": params.t_mem_ref,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> NetworkParameters:
    """Read a checkpoint; a file that is not valid JSON, has the wrong
    ``format`` or ``version``, lacks a key, or whose arrays do not chain
    into a 1-input, 2-output MLP, raises ArtifactFormatError naming the
    file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ArtifactFormatError(f"{path}: must hold a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ArtifactFormatError(
            f"{path}: not a checkpoint file (format {payload.get('format')!r})"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ArtifactFormatError(
            f"{path}: unsupported checkpoint version {payload.get('version')!r}"
        )
    try:
        weights = tuple(_frozen(w) for w in payload["weights"])
        biases = tuple(_frozen(b) for b in payload["biases"])
        scalars = {
            key: float(payload[key])
            for key in ("k5_hat", "input_scale", "v_ref", "t_mem_ref")
        }
    except KeyError as exc:
        raise ArtifactFormatError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: malformed value ({exc})") from exc
    fan_in = LAYER_SIZES[0]
    for w, b in zip(weights, biases):
        if b.ndim != 1 or w.shape != (b.size, fan_in):
            raise ArtifactFormatError(f"{path}: layer shapes do not chain")
        fan_in = b.size
    if len(weights) != len(biases) or fan_in != LAYER_SIZES[-1]:
        raise ArtifactFormatError(f"{path}: layer shapes do not chain")
    if not all(np.all(np.isfinite(a)) for a in weights + biases) or not all(
        np.isfinite(v) for v in scalars.values()
    ):
        raise ArtifactFormatError(f"{path}: non-finite parameter")
    return NetworkParameters(weights=weights, biases=biases, **scalars)


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr
