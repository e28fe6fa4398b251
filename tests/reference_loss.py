"""Complex-step reference for the training gradient.

The loss is written once more in plain numpy over a flat parameter vector,
from the forward pass and the residuals of ``reference_physics.py``, and
differentiated by ``complex_step.gradient``: one complex evaluation per
parameter. This is the reference the closed-form gradient of
:func:`pempinn.training.composite_loss` is pinned to.
"""

import numpy as np
from complex_step import gradient
from reference_physics import (
    mlp_forward,
    thinning_residual_terms,
    voltage_residual_terms,
)

from pempinn.electrochem import solve_cell_voltage
from pempinn.network import flatten


def _split(vec, template):
    """Weights, biases and k5_hat of a flatten()-ordered vector, which may
    be complex (``unflatten`` casts k5_hat to a float)."""
    weights, biases, pos = [], [], 0
    for w, b in zip(template.weights, template.biases):
        weights.append(vec[pos : pos + w.size].reshape(w.shape))
        pos += w.size
        biases.append(vec[pos : pos + b.size])
        pos += b.size
    return weights, biases, vec[pos]


def loss(vec, net, dataset, config, coeffs, params, cond, v0):
    """Total loss at the parameter vector ``vec``; ``net`` supplies the
    layer shapes and the normalization scales."""
    weights, biases, k5_hat = _split(vec, net)
    tau_d = dataset.train_times / net.input_scale
    y, _ = mlp_forward(weights, biases, tau_d)
    rv = y[0] - dataset.train_voltages / net.v_ref
    rm = y[1] - dataset.train_thicknesses / net.t_mem_ref
    total = np.mean(rv * rv) + np.mean(rm * rm)

    if config.lambda_v > 0.0 or config.lambda_tmem > 0.0:
        tau_c = np.linspace(0.0, cond.t_max, config.n_collocation) / net.input_scale
        (y_v, y_m), (dyv, dym) = mlp_forward(weights, biases, tau_c)
        r_v = voltage_residual_terms(
            y_v, y_m, dyv, dym, coeffs, net.v_ref, net.t_mem_ref
        )
        r_m = thinning_residual_terms(
            y_v, y_m, dym, k5_hat, params, cond, net.v_ref, net.t_mem_ref, cond.t_max,
        )
        total = total + config.lambda_v * np.mean(r_v * r_v)
        total = total + config.lambda_tmem * np.mean(r_m * r_m)

    y0, _ = mlp_forward(weights, biases, 0.0)
    ic_v = y0[0, 0] - v0 / net.v_ref
    ic_m = y0[1, 0] - 1.0
    return total + config.lambda_ic * (ic_v * ic_v + ic_m * ic_m)


def reference_gradient(net, dataset, config, coeffs, params, cond, v0=None):
    """Complex-step gradient of the reference loss, in flatten() order."""
    if v0 is None:
        v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    return gradient(
        lambda vec: loss(vec, net, dataset, config, coeffs, params, cond, v0),
        flatten(net),
    )
