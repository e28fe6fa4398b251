"""Acceptance suite.

Runs every release gate at its stated tolerance and prints one PASS/FAIL
line per criterion (visible with `pytest -s`). The closed-loop experiment
(criteria 1-3, 8) drives the real CLI pipeline end to end, twice and side
by side (in the test process and in a fresh one), on the committed default
configuration.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pempinn
from pempinn.cli import main
from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.degradation import (
    hydroxyl_chain_partials,
    peroxide_quadratic_coefficients,
    solve_peroxide_selected,
    thinning_rate,
)
from pempinn.electrochem import (
    activation_overpotential,
    degraded_conductivity,
    membrane_conductivity,
    ohmic_overpotential,
    open_circuit_voltage,
    solve_cell_voltage,
    voltage_coefficients,
)
from pempinn.network import flatten, init_parameters, unflatten
from pempinn.simulator import generate_dataset, integrate_trajectory
from pempinn.training import TrainingConfig, composite_loss, loss_points


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    """Two full pipeline runs with the committed defaults, side by side: the
    second in a fresh `python -m pempinn.cli` process, started first, and
    the first through `main` in this process, which criteria 1-3 read."""
    first, second = (tmp_path_factory.mktemp(f"repro_{tag}") for tag in ("a", "b"))
    src = str(Path(pempinn.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    t0 = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-m", "pempinn.cli", "reproduce", "--out", str(second)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        code = main(["reproduce", "--out", str(first)])
        first_elapsed = time.monotonic() - t0
        _, stderr = child.communicate(timeout=600.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    second_elapsed = time.monotonic() - t0
    assert child.returncode == code, stderr
    return [
        {
            "out": out,
            "exit_code": code,
            "elapsed": elapsed,
            "report": json.loads((out / "report.json").read_text()),
        }
        for out, elapsed in ((first, first_elapsed), (second, second_elapsed))
    ]


def test_criterion_1_closed_loop_k5_recovery(reproduction):
    k5 = reproduction[0]["report"]["pinn"]["k5_hat_final"]
    elapsed = max(run["elapsed"] for run in reproduction)
    ok = 0.90 <= k5 <= 1.10 and elapsed < 600.0
    report(1, f"closed-loop k5 recovery (k5_hat={k5:.4f}, {elapsed:.0f}s)", ok)
    assert 0.90 <= k5 <= 1.10
    assert elapsed < 600.0


def test_criterion_2_physics_beats_baseline(reproduction):
    rep = reproduction[0]["report"]
    pinn, ann = rep["pinn"], rep["ann"]
    ratio_v = ann["rmse_test_V"] / pinn["rmse_test_V"]
    ratio_m = ann["rmse_test_mem"] / pinn["rmse_test_mem"]
    ok = ratio_v > 5.0 and ratio_m > 5.0
    report(
        2,
        f"PINN vs ANN generalization (ratios V={ratio_v:.1f}x, mem={ratio_m:.1f}x)",
        ok,
    )
    assert ratio_v > 5.0
    assert ratio_m > 5.0


def test_criterion_3_rmse_magnitude_bounds(reproduction):
    pinn = reproduction[0]["report"]["pinn"]
    ok = pinn["rmse_test_V"] <= 0.02 and pinn["rmse_test_mem"] <= 5.0e-4
    report(
        3,
        "test-RMSE magnitude bounds "
        f"(V={pinn['rmse_test_V']:.5f} <= 0.02, mem={pinn['rmse_test_mem']:.6f} <= 5e-4)",
        ok,
    )
    assert pinn["rmse_test_V"] <= 0.02
    assert pinn["rmse_test_mem"] <= 5.0e-4


def test_criterion_4_gradient_oracle():
    params = PhysicsParameters()
    cond = OperatingConditions()
    coeffs = voltage_coefficients(params, cond)
    v0 = solve_cell_voltage(coeffs, cond.t_mem0)
    traj = integrate_trajectory(params, cond, n_steps=256)
    ds = generate_dataset(traj, n_train=16, n_test=40, train_fraction=1 / 3, seed=3)
    cfg = TrainingConfig(max_epochs=1, n_collocation=8)

    t0 = time.monotonic()
    worst = 0.0
    h = 1e-4
    for seed in range(20):
        net = init_parameters(seed, input_scale=cond.t_max, t_mem_ref=cond.t_mem0)
        # The gradient train() steps along.
        points = loss_points(net, ds, cfg, cond)
        grad = composite_loss(net, points, cfg, coeffs, params, cond, v0)[1]
        vec = flatten(net)

        def loss_at(v):
            nn = unflatten(v, net)
            return composite_loss(nn, points, cfg, coeffs, params, cond, v0)[0]["total"]

        fd = np.zeros_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = h
            fd[i] = (
                8 * (loss_at(vec + e) - loss_at(vec - e))
                - (loss_at(vec + 2 * e) - loss_at(vec - 2 * e))
            ) / (12 * h)
        err = np.abs(grad - fd)
        tol = 1e-5 * np.abs(fd) + 1e-10
        worst = max(worst, float((err / tol).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    report(
        4,
        f"gradient oracle, 20 seeds x 88 coords (worst err/tol={worst:.3f}, "
        f"{elapsed:.0f}s)",
        ok,
    )
    assert worst <= 1.0
    assert elapsed < 60.0


def test_criterion_5_integrator_order_and_exponential():
    params = PhysicsParameters()
    cond = OperatingConditions()

    # Self-convergence on an accelerated configuration (the default dynamics
    # are gentle enough that RK4 truncation error reaches the 1e-14
    # voltage-solve floor by n=128, where order measurement degenerates).
    fast = replace(params, v1=14.0)
    k5 = 5.0e3
    ref = integrate_trajectory(fast, cond, k5=k5, n_steps=2**16).thicknesses[-1]
    errors = []
    for n in (16, 32, 64, 128):
        t = integrate_trajectory(fast, cond, k5=k5, n_steps=n).thicknesses[-1]
        errors.append(abs(t - ref))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]

    # Frozen-coefficient trajectory against the closed-form exponential.
    v0 = solve_cell_voltage(voltage_coefficients(params, cond), cond.t_mem0)
    c_ho = hydroxyl_chain_partials(params, cond, np.array([v0]), params.k5_true)[0][0]
    traj = integrate_trajectory(params, cond, n_steps=4096, c_ho_override=c_ho)
    kappa = float(thinning_rate(params, c_ho, cond.t_mem0)) / cond.t_mem0
    exact = cond.t_mem0 * np.exp(-kappa * traj.times)
    max_rel = float(np.max(np.abs(traj.thicknesses - exact) / exact))

    ok = min(orders) >= 3.8 and max_rel <= 1e-8
    report(
        5,
        f"integrator order (min {min(orders):.2f} >= 3.8) and frozen "
        f"exponential (max rel {max_rel:.2e} <= 1e-8)",
        ok,
    )
    assert min(orders) >= 3.8
    assert max_rel <= 1e-8


def test_criterion_6_voltage_solve_contracts():
    params = PhysicsParameters()
    cond = OperatingConditions()
    coeffs = voltage_coefficients(params, cond)
    traj = integrate_trajectory(params, cond, n_steps=4096)

    i = coeffs.P_over_A / traj.voltages
    rhs = coeffs.k1V + coeffs.k2V * np.log(i) + coeffs.k3V * i / traj.thicknesses
    back_sub = float(np.max(np.abs(traj.voltages - rhs)))

    sigma = membrane_conductivity(params.lambda_hydration, cond.T)
    decomp_err = 0.0
    for idx in np.linspace(0, len(traj.times) - 1, 64, dtype=int):
        v = traj.voltages[idx]
        tm = traj.thicknesses[idx]
        cur = coeffs.P_over_A / v
        total = (
            open_circuit_voltage(params, cond)
            + activation_overpotential(params, cond, cur)
            + ohmic_overpotential(degraded_conductivity(sigma, tm, cond.t_mem0), tm, cur)
        )
        decomp_err = max(decomp_err, abs(v - total))

    ok = back_sub <= 1e-10 and decomp_err <= 1e-9
    report(
        6,
        f"voltage solve (back-substitution {back_sub:.2e} <= 1e-10, "
        f"decomposition {decomp_err:.2e} <= 1e-9)",
        ok,
    )
    assert back_sub <= 1e-10
    assert decomp_err <= 1e-9


def test_criterion_7_chemistry_contracts():
    params = PhysicsParameters()
    cond = OperatingConditions()
    traj = integrate_trajectory(params, cond, n_steps=1024)

    a, b, c, w, _ = peroxide_quadratic_coefficients(
        params, cond, traj.voltages, params.k5_true
    )
    quad = a * traj.c_h2o2**2 + b * traj.c_h2o2 + c
    quad_scale = np.abs(a * traj.c_h2o2**2) + np.abs(b * traj.c_h2o2) + np.abs(c)
    quad_rel = float(np.max(np.abs(quad) / quad_scale))

    terms = np.stack(
        [w / params.k3,
         np.full_like(w, params.k2 / params.k3),
         params.v1 / (params.k3 * traj.c_h2o2)]
    )
    resid = np.abs(traj.c_ho - (terms[0] - terms[1] - terms[2]))
    ho_rel = float(np.max(resid / np.max(np.abs(terms), axis=0)))

    # Root-selection continuity under 1e-12 relative coefficient noise, at
    # 32 points of the trajectory: base and perturbed triples in one solve.
    idx = np.linspace(0, len(traj.times) - 1, 32, dtype=int)
    ai, bi, ci = a[idx], b[idx], c[idx]
    roots, feasible = solve_peroxide_selected(
        np.concatenate([ai, ai * (1 + 1e-12)]),
        np.concatenate([bi, bi * (1 - 1e-12)]),
        np.concatenate([ci, ci * (1 + 1e-12)]),
    )
    base, pert = roots[: idx.size], roots[idx.size :]
    max_shift = float(np.max(np.abs(pert - base) / np.maximum(1.0, np.abs(base))))
    all_feasible = bool(feasible.all())

    ok = all_feasible and quad_rel <= 1e-9 and ho_rel <= 1e-9 and max_shift <= 1e-6
    report(
        7,
        f"steady-state chemistry (quadratic {quad_rel:.2e}, hydroxyl "
        f"{ho_rel:.2e} <= 1e-9; root shift {max_shift:.2e} <= 1e-6, "
        f"every triple feasible: {all_feasible})",
        ok,
    )
    assert all_feasible
    assert quad_rel <= 1e-9
    assert ho_rel <= 1e-9
    assert max_shift <= 1e-6


def test_criterion_8_reproduction_determinism(reproduction):
    first, second = reproduction
    identical = True
    compared = []
    for rel in ("pinn/history.csv", "ann/history.csv", "pinn/metrics.json",
                "ann/metrics.json", "pinn/checkpoint.json", "ann/checkpoint.json",
                "dataset.csv", "dataset.csv.meta.json", "trajectory.csv",
                "trajectory_diagnostics.csv", "report.json"):
        a = (first["out"] / rel).read_bytes()
        b = (second["out"] / rel).read_bytes()
        compared.append(rel)
        if a != b:
            identical = False
    ok = identical
    report(8, f"byte-identical reruns ({', '.join(compared)})", ok)
    assert identical
