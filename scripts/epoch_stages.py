#!/usr/bin/env python3
"""Median time of each stage of one PINN training epoch.

Trains the packaged config's PINN (1000 collocation points) for --epochs
epochs on the dataset that config generates, then times each stage of the
next epoch's loss and update on that net, in the same process and so with
the heap state train() leaves (``training.HEAP_BLOCK_PER_POINT``), with one
BLAS thread: for each stage, the median over --repeats runs of the mean
time of --calls back-to-back calls.
The stages are the network pass with its tau-derivatives, the two residuals
with their partials on numpy, the hydroxyl chain inside them, the residual
block that composite_loss runs (``_kernel.get_residual_block``: the C block
and the three sums where it builds, else the numpy residuals and the
gradient rows), the network's vector-Jacobian product, the Adam step,
unflatten, and the whole composite_loss that holds all but the last two.
Prints one line per stage, and the block's kind on stderr; writes no file.

    python scripts/epoch_stages.py                  # 2000 epochs, 7 x 300 calls
    python scripts/epoch_stages.py --epochs 2 --calls 3 --repeats 1
"""

import os

# Before numpy is imported: its BLAS reads these once, at load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from pempinn import _kernel
from pempinn.config import default_config
from pempinn.constants import K5_SCALE
from pempinn.degradation import hydroxyl_chain_partials
from pempinn.electrochem import solve_cell_voltage, voltage_coefficients
from pempinn.network import flatten, mlp_with_tangent, mlp_with_tangent_vjp, unflatten
from pempinn.simulator import generate_dataset, integrate_trajectory
from pempinn.training import (
    CLAMP_EPS,
    AdamState,
    adam_step,
    composite_loss,
    loss_points,
    residual_partials,
    train,
)


def median_ms(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` runs of the mean time of ``calls`` calls, ms."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - start) / calls)
    return 1e3 * statistics.median(runs)


def stages(epochs: int):
    """``(name, call)`` of each stage, on the net after ``epochs`` epochs."""
    cfg = default_config()
    params, cond = cfg.physics, cfg.conditions
    sim = cfg.simulation
    traj = integrate_trajectory(params, cond, n_steps=sim.n_steps)
    ds = generate_dataset(
        traj, sim.n_train, sim.n_test, sim.train_fraction, sim.dataset_seed
    )
    config = replace(cfg.training, max_epochs=epochs)
    net, _ = train(ds, params, cond, config)

    coeffs = voltage_coefficients(params, cond)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    points = loss_points(net, ds, config, cond)
    n_c = points.n_collocation
    w, b = net.weights, net.biases
    y, dy, cache = mlp_with_tangent(w, b, points.tau)
    y_v, y_m, dyv, dym = y[0, :n_c], y[1, :n_c], dy[0, :n_c], dy[1, :n_c]
    v = net.v_ref * np.maximum(y_v, CLAMP_EPS)
    k5 = net.k5_hat * K5_SCALE
    g_y, g_dy = np.ones_like(y), np.ones_like(dy)
    block = _kernel.get_residual_block()
    block_args = (
        y, dy, n_c, net.k5_hat, net.v_ref, net.t_mem_ref, config, coeffs,
        params, cond, np.zeros_like(y), np.zeros_like(dy),
    )
    vec = flatten(net)
    _, grad = composite_loss(net, points, config, coeffs, params, cond, v0)
    adam = AdamState.zeros(vec.size)
    return [
        ("mlp_with_tangent", lambda: mlp_with_tangent(w, b, points.tau)),
        ("residual_partials", lambda: residual_partials(
            y_v, y_m, dyv, dym, net.k5_hat, coeffs, params, cond,
            net.v_ref, net.t_mem_ref,
        )),
        ("hydroxyl_chain_partials",
         lambda: hydroxyl_chain_partials(params, cond, v, k5)),
        ("residual_block", lambda: block(*block_args)),
        ("mlp_with_tangent_vjp", lambda: mlp_with_tangent_vjp(w, cache, g_y, g_dy)),
        ("adam_step", lambda: adam_step(adam, vec, grad, config)),
        ("unflatten", lambda: unflatten(vec, net)),
        ("composite_loss", lambda: composite_loss(
            net, points, config, coeffs, params, cond, v0
        )),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=2000,
                        help="training epochs before timing (default 2000)")
    parser.add_argument("--calls", type=int, default=300,
                        help="calls per timed run (default 300)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs per stage (default 7)")
    args = parser.parse_args(argv)
    if args.epochs < 0 or args.calls < 1 or args.repeats < 1:
        parser.error("--epochs must be non-negative, --calls and --repeats positive")
    timed = stages(args.epochs)
    print(f"residual block: {_kernel.residual_kernel_name()}", file=sys.stderr)
    for name, call in timed:
        call()  # warm up
        print(f"{name:26s} {median_ms(call, args.calls, args.repeats):8.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
