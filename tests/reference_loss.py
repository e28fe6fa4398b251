"""Reverse-mode reference for the training gradient.

The loss is built as a ``Value`` graph over
:class:`~pempinn.network.LiftedParameters`, with the tau-derivatives of the
outputs pushed through the network as ``Dual`` numbers of ``Value`` nodes
(forward-over-reverse), and differentiated by one backward sweep. The
forward pass and the residuals are the generic definitions of
``reference_physics.py``. This is the reference the graph-free gradient of
:func:`pempinn.training.composite_loss` is pinned to.
"""

import numpy as np

from pempinn.autodiff import BackwardError, Dual, Value, primal
from pempinn.electrochem import solve_cell_voltage
from pempinn.errors import ConfigError
from pempinn.network import LiftedParameters
from reference_physics import (
    mlp_forward,
    thinning_residual_terms,
    voltage_residual_terms,
)


def gradient(params, loss_builder):
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


def _forward_with_tau_derivatives(net, tau):
    y = mlp_forward(net.weights, net.biases, Dual(tau, 1.0))
    return y[0].primal, y[1].primal, y[0].tangent, y[1].tangent


def composite_loss(net, dataset, config, coeffs, params, cond, v0=None, diag=None):
    """Total loss and its weighted components, ``(total, components)``.

    ``net`` is a LiftedParameters, so the total is a differentiable
    ``Value``.
    """
    if len(dataset.train_times) == 0:
        raise ConfigError("dataset", "training split is empty")
    if v0 is None:
        v0 = solve_cell_voltage(coeffs, cond.t_mem0)

    tau_d = dataset.train_times / net.input_scale
    target_v = dataset.train_voltages / net.v_ref
    target_m = dataset.train_thicknesses / net.t_mem_ref
    y = mlp_forward(net.weights, net.biases, tau_d)
    rv = y[0] - target_v
    rm = y[1] - target_m
    data = (rv * rv).mean() + (rm * rm).mean()

    if config.lambda_v > 0.0 or config.lambda_tmem > 0.0:
        tau_c = np.linspace(0.0, cond.t_max, config.n_collocation) / net.input_scale
        y_v, y_m, dyv, dym = _forward_with_tau_derivatives(net, tau_c)
        r_v = voltage_residual_terms(
            y_v, y_m, dyv, dym, coeffs, net.v_ref, net.t_mem_ref, diag
        )
        r_m = thinning_residual_terms(
            y_v, y_m, dym, net.k5_hat, params, cond,
            net.v_ref, net.t_mem_ref, cond.t_max, diag,
        )
        physics_v = config.lambda_v * (r_v * r_v).mean()
        physics_mem = config.lambda_tmem * (r_m * r_m).mean()
    else:
        physics_v = 0.0
        physics_mem = 0.0

    y0 = mlp_forward(net.weights, net.biases, 0.0)
    ic_v = y0[0] - v0 / net.v_ref
    ic_m = y0[1] - 1.0
    ic = config.lambda_ic * (ic_v * ic_v + ic_m * ic_m)

    total = data + physics_v + physics_mem + ic
    components = {
        "data": float(primal(data)),
        "physics_v": float(primal(physics_v)),
        "physics_mem": float(primal(physics_mem)),
        "ic": float(primal(ic)),
        "total": float(primal(total)),
    }
    return total, components


def reference_gradient(net, dataset, config, coeffs, params, cond, v0=None, diag=None):
    """Gradient of the reference loss by one backward sweep of its graph."""
    return gradient(
        net,
        lambda lifted: composite_loss(
            lifted, dataset, config, coeffs, params, cond, v0, diag
        )[0],
    )
