"""Two-output MLP surrogate with a trainable degradation-rate scalar.

The network maps normalized time tau = t/input_scale through sigmoid hidden
layers to two affine outputs, de-normalized to a voltage and a membrane
thickness. All quantities seen by the optimizer are O(1): raw scales
(8e5 hours, 0.0175 cm) would make the problem badly conditioned.

A single extra trainable scalar ``k5_hat`` (the normalized attack-rate
constant, physical value k5_hat * 1e3 m3/(mol s)) lives alongside the
weights so one optimizer updates everything jointly.

Two forward passes, each one ``W @ a + b`` per layer over an ``(n, N)``
block of activations, N being the number of evaluation points, both on
plain arrays (the tangent pass forms its one-input first layer as the
outer product ``W * a``):

* :func:`mlp_forward` is the plain pass that :func:`predict` uses.
* :func:`mlp_with_tangent` carries d/dtau through the sigmoid layers
  (divided by ``input_scale``, that tangent is the outputs' time
  derivative), and :func:`mlp_with_tangent_vjp` is its hand-written
  vector-Jacobian product: given cotangents of the outputs and of their
  tau-derivatives it returns the gradient of every weight and bias, using
  sigma' = s(1 - s) and sigma'' = sigma'(1 - 2s). The training loss is
  differentiated through these two, with no graph.

:class:`LiftedParameters` re-expresses the parameters as
:class:`~pempinn.autodiff.Value` leaves, for the reverse-mode engine's own
tests; the training gradient's reference is a complex-step derivative of a
plain-numpy copy of the forward pass (``tests/reference_physics.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactFormatError
from .simulator import atomic_open, json_key, json_value, read_json_object

__all__ = [
    "LAYER_SIZES",
    "NetworkParameters",
    "LiftedParameters",
    "init_parameters",
    "mlp_forward",
    "mlp_with_tangent",
    "mlp_with_tangent_vjp",
    "predict",
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
) -> NetworkParameters:
    """Glorot-uniform weights, zero biases, and k5_hat = 0 (no prior).

    Deterministic per seed. ``OperatingConditions`` guarantees the positive
    ``input_scale`` (t_max) and ``t_mem_ref`` (t_mem0), ``TrainingConfig``
    the ``seed`` and ``v_ref``.
    """
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
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


def _sigmoid(x):
    """Logistic function that never overflows: z = exp(-|x|) <= 1."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def mlp_forward(weights, biases, tau):
    """Outputs at the points of a 1-d array ``tau``, as an ``(n_out, N)``
    block; sigmoid hidden layers, affine output layer."""
    a = np.reshape(tau, (1, -1))
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = w @ a + np.reshape(b, (-1, 1))
        if layer < last:
            a = _sigmoid(a)
    return a


def predict(params: NetworkParameters, t):
    """Network outputs in physical units: (voltage V, thickness cm) at the
    times of a 1-d array ``t``, evaluated in blocks of PREDICT_BLOCK points
    so that memory stays flat however long ``t`` is."""
    tau = t / params.input_scale
    y_v, y_m = np.concatenate([
        mlp_forward(params.weights, params.biases, tau[i : i + PREDICT_BLOCK])
        for i in range(0, max(len(tau), 1), PREDICT_BLOCK)
    ], axis=1)
    return params.v_ref * y_v, params.t_mem_ref * y_m


def mlp_with_tangent(weights, biases, tau):
    """Outputs and their tau-derivatives at the points of a 1-d array ``tau``.

    Returns ``(y, dy, cache)``: ``y`` and ``dy`` are ``(n_out, N)`` blocks,
    ``cache`` holds what :func:`mlp_with_tangent_vjp` needs of each layer.
    The tangent is seeded with d(tau)/d(tau) = 1 at every point.

    The first hidden layer has one input, so its ``w @ a`` is the outer
    product ``w * a``, and its tangent ``w @ 1`` is the ``(n, 1)`` column
    ``w`` itself, which broadcasts over the points: one product per entry
    either way, so the values are those of the matmuls.
    """
    a = np.reshape(tau, (1, -1))
    da = np.ones_like(a)
    cache = []
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if layer == 0 and last:
            z, dz = w * a, w
        else:
            z, dz = w @ a, w @ da
        z = z + np.reshape(b, (-1, 1))
        if layer < last:
            s = _sigmoid(z)
            ds = s * (1.0 - s)
            cache.append((a, da, s, ds, dz))
            a, da = s, dz * ds
        else:
            cache.append((a, da, None, None, None))
            a, da = z, dz
    return a, da, cache


def mlp_with_tangent_vjp(weights, cache, g_y, g_dy) -> np.ndarray:
    """Gradient of ``sum(g_y * y + g_dy * dy)`` over the weights and biases.

    ``g_y`` and ``g_dy`` are ``(n_out, N)`` cotangents of the outputs of
    :func:`mlp_with_tangent` and of their tau-derivatives. Returns the
    gradient in flatten() order without the trailing k5_hat entry.

    A hidden layer maps z, dz to a = s(z), da = s'(z) dz, so the cotangents
    of z and dz are g_z = g_a s' + g_da s'' dz and g_dz = g_da s'.
    """
    parts = []
    g_a, g_da = g_y, g_dy
    for layer in range(len(weights) - 1, -1, -1):
        a, da, s, ds, dz = cache[layer]
        if s is None:
            g_z, g_dz = g_a, g_da
        else:
            g_dz = g_da * ds
            g_z = g_a * ds + g_dz * (1.0 - 2.0 * s) * dz
        parts.append(g_z.sum(axis=1))
        parts.append(np.ravel(g_z @ a.T + g_dz @ da.T))
        if layer:
            w = weights[layer]
            g_a = w.T @ g_z
            g_da = w.T @ g_dz
    return np.concatenate(parts[::-1])


class LiftedParameters:
    """NetworkParameters re-expressed as 7 array autodiff leaves.

    The leaves are W1, b1, W2, b2, W3, b3 and k5_hat, in flatten() order;
    biases are lifted as ``(n, 1)`` columns so they broadcast over points.
    """

    def __init__(self, params: NetworkParameters):
        from .autodiff import Value  # here, so that the CLI does not load it

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


def save_checkpoint(params: NetworkParameters, path) -> None:
    """Write the checkpoint as UTF-8 JSON, atomically (``atomic_open``)."""
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
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> NetworkParameters:
    """Read a checkpoint; a file that is not UTF-8 JSON, has the wrong
    ``format``, a ``version`` other than the integer 1, lacks a key, holds
    a value that is not a finite number (``simulator.JSON_KINDS``) or a
    non-positive scale, or whose arrays do not chain into a 1-input,
    2-output MLP, raises ArtifactFormatError naming the file, and the key
    where one is at fault."""
    payload = read_json_object(path, ArtifactFormatError)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ArtifactFormatError(
            f"{path}: not a checkpoint file (format {payload.get('format')!r})"
        )
    version = json_key(payload, "version", "int", path, ArtifactFormatError)
    if version != CHECKPOINT_VERSION:
        raise ArtifactFormatError(f"{path}: unsupported checkpoint version {version}")
    weights, biases = (_layers(payload, key, path) for key in ("weights", "biases"))
    scalars = {
        key: json_key(payload, key, "float", path, ArtifactFormatError)
        for key in ("k5_hat", "input_scale", "v_ref", "t_mem_ref")
    }
    fan_in = LAYER_SIZES[0]
    for w, b in zip(weights, biases):
        if b.ndim != 1 or w.shape != (b.size, fan_in):
            raise ArtifactFormatError(f"{path}: layer shapes do not chain")
        fan_in = b.size
    if len(weights) != len(biases) or fan_in != LAYER_SIZES[-1]:
        raise ArtifactFormatError(f"{path}: layer shapes do not chain")
    for key in ("input_scale", "v_ref", "t_mem_ref"):
        if scalars[key] <= 0.0:
            raise ArtifactFormatError(
                f"{path}: scale '{key}' must be positive, got {scalars[key]}"
            )
    return NetworkParameters(weights=weights, biases=biases, **scalars)


def _layers(payload: dict, key: str, path) -> tuple:
    """``payload[key]``, a list of nested lists of finite numbers, as one
    read-only float array per entry."""
    where = f"{path}: key '{key}': "
    layers = []
    for values in json_key(payload, key, "list", path, ArtifactFormatError):
        cells = np.array(values, dtype=object)  # a ragged row stays a list cell
        floats = [json_value(v, "float", ArtifactFormatError, where) for v in cells.flat]
        layers.append(np.reshape(floats, cells.shape))
        layers[-1].setflags(write=False)
    return tuple(layers)
