"""Physics-informed training: composite loss, Adam, and evaluation.

The loss combines (all nondimensionalized so unit weights are meaningful):

* data mismatch on the noisy training samples, both channels scaled by
  their reference magnitudes;
* the voltage-evolution residual at collocation points, formed from the
  explicit rearrangement of the time-differentiated voltage equation (the
  raw form has dV/dt on both sides and would double-count the derivative);
* the thinning-law residual, whose degradation term chains through the
  radical steady state at the predicted voltage and carries the trainable
  normalized rate constant k5_hat (physical value k5_hat * 1e3);
* an initial-condition term pinning V(0) and t_mem(0).

Collocation points cover the full horizon, not just the training window:
residuals are the only information available in the extrapolated region.

The gradient is computed without a reverse-mode graph. One pass of
:func:`~pempinn.network.mlp_with_tangent` evaluates the outputs and their
tau-derivatives at every point (collocation, training times and tau = 0).
The residuals are pointwise in time, so their Jacobians are per point:
:func:`residual_partials` writes the partials with respect to y_v, y_m,
dy_v/dtau, dy_m/dtau and k5_hat in closed form on plain arrays, with the
chemistry's from :func:`~pempinn.degradation.hydroxyl_chain_partials`.
The chain rule then turns the loss into cotangents of the network outputs,
and :func:`~pempinn.network.mlp_with_tangent_vjp` carries them to the
weights.

Everything here runs on plain arrays. The tests pin the closed-form
partials, and the gradient, to complex-step derivatives of a plain-numpy
copy of the two residuals and of the loss (``tests/reference_physics.py``,
``tests/reference_loss.py``).

Training is full-batch Adam, bitwise deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import K5_SCALE, OperatingConditions, PhysicsParameters
from .degradation import (
    DiagnosticCounters,
    hydroxyl_chain_partials,
    thinning_rate,
)
from .electrochem import VoltageCoefficients, solve_cell_voltage, voltage_coefficients
from .errors import ConfigError, TrainingError
from .network import (
    DEFAULT_V_REF,
    NetworkParameters,
    flatten,
    init_parameters,
    mlp_with_tangent,
    mlp_with_tangent_vjp,
    predict,
    unflatten,
)
from .simulator import MAX_COUNT

__all__ = [
    "TrainingConfig",
    "Metrics",
    "EpochRecord",
    "AdamState",
    "adam_step",
    "residual_partials",
    "LossPoints",
    "loss_points",
    "composite_loss",
    "train",
    "evaluate",
]

# Floor, in normalized units, under which predicted outputs are clamped
# before entering residual denominators. Early epochs can emit near-zero or
# negative outputs; without a floor well inside the smooth region the
# residual coefficients (~1/(t_mem*V^2)) reach 1e19, which permanently
# suppresses Adam's second-moment-scaled steps and puts the loss outside
# the dynamic range any finite-difference check can resolve. 0.1 is a
# factor ~5 below the smallest physically reachable normalized output.
CLAMP_EPS = 0.1


@dataclass
class TrainingConfig:
    learning_rate: float = 0.005
    max_epochs: int = 7500
    lambda_v: float = 1.0
    lambda_tmem: float = 1.0
    lambda_ic: float = 10.0
    n_collocation: int = 1000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1.0e-8
    seed: int = 7
    physics_enabled: bool = True
    v_ref: float = DEFAULT_V_REF
    checkpoint_every: int = 0

    def __post_init__(self):
        if not self.physics_enabled:
            self.lambda_v = 0.0
            self.lambda_tmem = 0.0
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate", "must be positive")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs", "must be non-negative")
        if not 2 <= self.n_collocation <= MAX_COUNT:
            raise ConfigError(
                "n_collocation", f"need 2 to {MAX_COUNT} collocation points"
            )
        for key in ("lambda_v", "lambda_tmem", "lambda_ic"):
            if getattr(self, key) < 0.0:
                raise ConfigError(key, "loss weights must be non-negative")
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(key, "Adam betas must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise ConfigError("adam_eps", "must be positive")
        if self.seed < 0:
            raise ConfigError("seed", "seed must be non-negative")
        if self.v_ref <= 0.0:
            raise ConfigError("v_ref", "voltage scale must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError(
                "checkpoint_every", "must be non-negative (0 turns checkpoints off)"
            )


class EpochRecord(NamedTuple):
    epoch: int
    loss_data: float
    loss_physics_v: float
    loss_physics_mem: float
    loss_ic: float
    loss_total: float
    k5_hat: float


@dataclass
class Metrics:
    rmse_train_v: float
    rmse_test_v: float
    rmse_train_mem: float
    rmse_test_mem: float
    k5_hat_final: float = float("nan")
    loss_history: list = field(default_factory=list)
    hydroxyl_clamped: int = 0
    chemistry_infeasible: int = 0
    output_clamped: int = 0


# -- residuals ----------------------------------------------------------------


def residual_partials(
    y_v, y_m, dyv_dtau, dym_dtau, k5_hat, coeffs: VoltageCoefficients,
    params: PhysicsParameters, cond: OperatingConditions,
    v_ref, t_ref, t_max, diag=None,
):
    """Both nondimensional residuals on plain ``(N,)`` arrays, with their
    per-point partials.

    With y' the derivatives with respect to tau = t/t_max, and V and t_mem
    the outputs de-normalized after flooring at CLAMP_EPS:

    * voltage evolution, the explicit rearrangement of the differentiated
      voltage equation, zero when the pair satisfies it:
      r_v = y_v' [1 + k2V/V + k3V (P/A)/(t_mem V^2)]
            + k3V (P/A)/(V t_mem^2) (t_ref/v_ref) y_m';
    * thinning, r_m = y_m' + (t_max/t_ref) TR, where TR chains V -> water
      velocity -> peroxide root -> hydroxyl -> attack rate at
      k5 = k5_hat * K5_SCALE; infeasible chemistry contributes no attack.

    Returns ``(r_v, jac_v, r_m, jac_m)``. Row k of each ``(5, N)`` Jacobian
    is the partial with respect to input k of (y_v, y_m, dy_v/dtau,
    dy_m/dtau, k5_hat), written out by hand. An output at or below the
    floor has partial 0 and is counted in ``diag`` as output_clamped, once
    per residual.
    """
    live_v = y_v > CLAMP_EPS
    live_m = y_m > CLAMP_EPS
    if diag is not None:
        diag.count("output_clamped", 2 * (np.sum(~live_v) + np.sum(~live_m)))
    v = v_ref * np.where(live_v, y_v, CLAMP_EPS)
    tm = t_ref * np.where(live_m, y_m, CLAMP_EPS)
    # dV/dy_v and dt_mem/dy_m: the scale where the output is live, else 0.
    dv = v_ref * live_v
    dtm = t_ref * live_m

    # Voltage: r = y_v' (1 + kin + ohm) + cross y_m', with kin = k2V/V,
    # ohm = k3V (P/A)/(t_mem V^2) and cross = k3V (P/A)/(V t_mem^2) t_ref/v_ref.
    inv_v = 1.0 / v
    inv_tm = 1.0 / tm
    kin = coeffs.k2V * inv_v
    ohm = (coeffs.k3V * coeffs.P_over_A) * inv_tm * inv_v * inv_v
    bracket = 1.0 + kin + ohm
    cross = ohm * v * inv_tm * (t_ref / v_ref)
    r_v = dyv_dtau * bracket + cross * dym_dtau
    jac_v = np.stack([
        -(dyv_dtau * (kin + 2.0 * ohm) + dym_dtau * cross) * inv_v * dv,
        -(dyv_dtau * ohm + 2.0 * dym_dtau * cross) * inv_tm * dtm,
        bracket,
        cross,
        np.zeros_like(r_v),
    ])

    # Thinning: r = y_m' + (t_max/t_ref) TR, and TR = rate k5 c_HO t_mem is
    # linear in each of k5, c_HO and t_mem.
    k5 = k5_hat * K5_SCALE
    c_ho, dc_dv, dc_dk5 = hydroxyl_chain_partials(params, cond, v, k5, diag)
    scale = t_max / t_ref
    rate = scale * thinning_rate(params, 1.0, 1.0, k5=1.0)
    r_m = dym_dtau + scale * thinning_rate(params, c_ho, tm, k5=k5)
    jac_m = np.stack([
        (rate * k5) * tm * dc_dv * dv,
        (rate * k5) * c_ho * dtm,
        np.zeros_like(r_m),
        np.ones_like(r_m),
        (rate * K5_SCALE) * tm * (c_ho + k5 * dc_dk5),
    ])
    return r_v, jac_v, r_m, jac_m


# -- composite loss -----------------------------------------------------------


@dataclass(frozen=True)
class LossPoints:
    """What the loss evaluates at, fixed for a whole training run.

    ``tau`` concatenates the collocation points (none when the physics
    terms are off), the training times and tau = 0, so one network pass
    serves every term.
    """

    tau: np.ndarray
    n_collocation: int
    targets: np.ndarray     # (2, n_train) normalized voltage and thickness


def loss_points(
    net: NetworkParameters, dataset, config: TrainingConfig, cond: OperatingConditions
) -> LossPoints:
    """The LossPoints of a dataset, in the net's normalized units."""
    physics = config.lambda_v > 0.0 or config.lambda_tmem > 0.0
    n_c = config.n_collocation if physics else 0
    tau_c = np.linspace(0.0, cond.t_max, n_c) / net.input_scale
    tau_d = dataset.train_times / net.input_scale
    return LossPoints(
        tau=np.concatenate([tau_c, tau_d, [0.0]]),
        n_collocation=n_c,
        targets=np.stack([
            dataset.train_voltages / net.v_ref,
            dataset.train_thicknesses / net.t_mem_ref,
        ]),
    )


def composite_loss(
    net: NetworkParameters,
    dataset,
    config: TrainingConfig,
    coeffs: VoltageCoefficients,
    params: PhysicsParameters,
    cond: OperatingConditions,
    v0: float | None = None,
    diag: DiagnosticCounters | None = None,
    points: LossPoints | None = None,
):
    """Weighted loss components and the gradient of their total.

    Returns ``(components, grad)``: components is a dict with keys
    data/physics_v/physics_mem/ic/total holding plain floats, and grad the
    gradient of the total in flatten() order. ``points`` defaults to
    :func:`loss_points` of this net and dataset; train() builds it once.
    """
    if points is None:
        points = loss_points(net, dataset, config, cond)
    if v0 is None:
        v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    y, dy, cache = mlp_with_tangent(net.weights, net.biases, points.tau)
    g_y = np.zeros_like(y)
    g_dy = np.zeros_like(dy)
    n_c = points.n_collocation

    # Data mismatch at the training times.
    n_d = points.targets.shape[1]
    data_cols = slice(n_c, n_c + n_d)
    r = y[:, data_cols] - points.targets
    data = float(np.mean(r[0] * r[0])) + float(np.mean(r[1] * r[1]))
    g_y[:, data_cols] = (2.0 / n_d) * r

    # Physics residuals at the collocation points, with their Jacobians.
    g_k5 = 0.0
    if n_c:
        r_v, jac_v, r_m, jac_m = residual_partials(
            y[0, :n_c], y[1, :n_c], dy[0, :n_c], dy[1, :n_c], net.k5_hat,
            coeffs, params, cond, net.v_ref, net.t_mem_ref, cond.t_max, diag,
        )
        physics_v = config.lambda_v * float(np.mean(r_v * r_v))
        physics_mem = config.lambda_tmem * float(np.mean(r_m * r_m))
        # d(lambda * mean(r^2))/dx = (2 lambda / N) * r * dr/dx, per point.
        jac = ((2.0 * config.lambda_v / n_c) * r_v) * jac_v + (
            (2.0 * config.lambda_tmem / n_c) * r_m
        ) * jac_m
        g_y[:, :n_c] = jac[0:2]
        g_dy[:, :n_c] = jac[2:4]
        g_k5 = float(np.sum(jac[4]))
    else:
        physics_v = 0.0
        physics_mem = 0.0

    # Initial condition at tau = 0, the last point.
    ic_v = float(y[0, -1]) - v0 / net.v_ref
    ic_m = float(y[1, -1]) - 1.0
    ic = config.lambda_ic * (ic_v * ic_v + ic_m * ic_m)
    g_y[0, -1] = 2.0 * config.lambda_ic * ic_v
    g_y[1, -1] = 2.0 * config.lambda_ic * ic_m

    components = {
        "data": data,
        "physics_v": physics_v,
        "physics_mem": physics_mem,
        "ic": ic,
        "total": data + physics_v + physics_mem + ic,
    }
    grad = np.append(mlp_with_tangent_vjp(net.weights, cache, g_y, g_dy), g_k5)
    return components, grad


# -- optimizer ----------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(
    state: AdamState, params_vec: np.ndarray, grad: np.ndarray,
    config: TrainingConfig,
):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient passed to adam_step")
    b1, b2 = config.adam_beta1, config.adam_beta2
    step = state.step + 1
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    new_params = params_vec - config.learning_rate * m_hat / (
        np.sqrt(v_hat) + config.adam_eps
    )
    return new_params, AdamState(m=m, v=v, step=step)


# -- training loop ------------------------------------------------------------


def train(
    dataset,
    params: PhysicsParameters,
    cond: OperatingConditions,
    config: TrainingConfig,
    checkpoint_hook=None,
):
    """Full-batch Adam on the composite loss; returns (network, metrics).

    ``checkpoint_hook(epoch, network)`` fires every ``config.checkpoint_every``
    epochs when both are set.
    """
    coeffs = voltage_coefficients(params, cond)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    template = init_parameters(
        config.seed,
        input_scale=cond.t_max,
        t_mem_ref=cond.t_mem0,
        v_ref=config.v_ref,
    )
    vec = flatten(template)
    adam = AdamState.zeros(vec.size)
    diag = DiagnosticCounters()
    points = loss_points(template, dataset, config, cond)
    history: list[EpochRecord] = []

    for epoch in range(config.max_epochs):
        net = unflatten(vec, template)
        comps, grad = composite_loss(
            net, dataset, config, coeffs, params, cond, v0, diag, points
        )
        if not np.isfinite(comps["total"]):
            bad = max(comps, key=lambda k: 0 if np.isfinite(comps[k]) else 1)
            raise TrainingError(
                f"non-finite loss at epoch {epoch} (component '{bad}')"
            )
        history.append(
            EpochRecord(
                epoch,
                comps["data"],
                comps["physics_v"],
                comps["physics_mem"],
                comps["ic"],
                comps["total"],
                float(net.k5_hat),
            )
        )
        vec, adam = adam_step(adam, vec, grad, config)
        if (
            checkpoint_hook is not None
            and config.checkpoint_every > 0
            and (epoch + 1) % config.checkpoint_every == 0
        ):
            checkpoint_hook(epoch + 1, unflatten(vec, template))

    final = unflatten(vec, template)
    metrics = evaluate(final, dataset)
    metrics.loss_history = history
    metrics.hydroxyl_clamped = diag.hydroxyl_clamped
    metrics.chemistry_infeasible = diag.chemistry_infeasible
    metrics.output_clamped = diag.output_clamped
    return final, metrics


def evaluate(net: NetworkParameters, dataset) -> Metrics:
    """RMSE in physical units; train split against its noisy targets, test
    split against the clean signal."""
    train_v, train_m = predict(net, dataset.train_times)
    test_v, test_m = predict(net, dataset.test_times)

    def rmse(a, b):
        return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))

    return Metrics(
        rmse_train_v=rmse(train_v, dataset.train_voltages),
        rmse_test_v=rmse(test_v, dataset.test_voltages),
        rmse_train_mem=rmse(train_m, dataset.train_thicknesses),
        rmse_test_mem=rmse(test_m, dataset.test_thicknesses),
        k5_hat_final=float(net.k5_hat),
    )
