"""Command-line pipeline: simulate, generate-data, train, evaluate, reproduce.

Every command writes its artifacts into an output directory together with an
append-only ``manifest.json`` recording the command, config hash, seeds,
file checksums and the environment that fixes the output bits (the Python
and numpy versions, numpy's SIMD targets and OpenBLAS's core). The entries
of ``simulate``, ``generate-data`` and ``reproduce``, which integrate and
write CSV floats, also record which RK4 loop ran and which formatter wrote
the floats (C or Python each); those of ``train`` and ``evaluate``, which
read a dataset CSV, record which parser read it. Exit codes are a stable
contract for CI: 0 success, 2 configuration error, 3 numerical failure, 4
I/O failure (1 is reserved for a completed reproduction run whose
acceptance checks did not all pass).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from ._fork import ForkedStage
from ._kernel import dataset_parser_name, repr_formatter_name, rk4_kernel_name
from .config import RunConfig, config_hash, load_config
from .constants import K5_SCALE
from .errors import (
    ArtifactFormatError,
    ConfigError,
    NumericalError,
    PempinnError,
)
from .network import load_checkpoint, save_checkpoint
from .simulator import (
    atomic_open,
    file_sha256,
    generate_dataset,
    integrate_trajectory,
    json_key,
    load_dataset,
    read_json_object,
    save_dataset,
    write_trajectory,
)
from .training import EpochRecord, evaluate, train

# k5_hat_final must lie within these factors of k5_true / K5_SCALE.
K5_RECOVERY_WINDOW = (0.90, 1.10)
RMSE_BOUND_V = 0.02       # V
RMSE_BOUND_MEM = 5.0e-4   # cm
PINN_OVER_ANN_FACTOR = 5.0
ANN_WEIGHTS = {"lambda_v": 0.0, "lambda_tmem": 0.0}  # --no-physics, reproduce's ann/
# The commands that run the RK4 loop and the CSV row formatter; their
# manifest entries say which of each ran.
KERNEL_COMMANDS = ("simulate", "generate-data", "reproduce")


def _default_config_path() -> Path:
    return Path(resources.files("pempinn") / "data" / "default_config.json")


def _load(args) -> RunConfig:
    path = Path(args.config) if args.config else _default_config_path()
    cfg = load_config(path)
    if getattr(args, "seed", None) is not None:
        cfg = replace(
            cfg,
            simulation=replace(cfg.simulation, dataset_seed=args.seed),
            training=replace(cfg.training, seed=args.seed),
        )
    if getattr(args, "epochs", None) is not None:
        cfg = replace(cfg, training=replace(cfg.training, max_epochs=args.epochs))
    if getattr(args, "no_physics", False):
        cfg = replace(cfg, training=replace(cfg.training, **ANN_WEIGHTS))
    return cfg


@functools.cache
def _native_environment(libs: Path) -> dict:
    """The SIMD targets numpy dispatches to (baseline and found, as
    ``numpy.show_runtime()`` lists them) and the core and config of the
    OpenBLAS in ``libs``: with the Python and numpy versions, what fixes a
    run's bits. Each is "unknown" where this numpy build does not expose it.
    """
    env = dict.fromkeys(("numpy_simd", "openblas_core", "openblas_config"), "unknown")
    with contextlib.suppress(ImportError, AttributeError):
        from numpy._core import _multiarray_umath as umath

        targets = (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
        env["numpy_simd"] = tuple(t for t in targets if umath.__cpu_features__.get(t))
    with contextlib.suppress(IndexError, OSError, AttributeError):
        lib = ctypes.CDLL(str(sorted(libs.glob("libscipy_openblas64_*.so"))[0]))
        for key, name in (("openblas_core", "corename"), ("openblas_config", "config")):
            getter = getattr(lib, f"scipy_openblas_get_{name}64_")
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            env[key] = getter().decode()
    return env


def _append_manifest(
    out_dir: Path, command: str, cfg: RunConfig, outputs, inputs=(), diagnostics=None,
    loaded_dataset=False,
):
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = read_json_object(manifest_path, ArtifactFormatError)
    except FileNotFoundError:
        manifest = {"runs": []}
    runs = json_key(manifest, "runs", "list", manifest_path, ArtifactFormatError)
    environment = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        **_native_environment(Path(np.__file__).parents[1] / "numpy.libs"),
    }
    if command in KERNEL_COMMANDS:
        # The bits are the same either way, the speed is not.
        environment["rk4_kernel"] = rk4_kernel_name()
        environment["repr_formatter"] = repr_formatter_name()
    if loaded_dataset:
        # The parser that load_dataset selected; the values are the same.
        environment["dataset_parser"] = dataset_parser_name()
    runs.append(
        {
            "command": command,
            "tool_version": __version__,
            "config_sha256": config_hash(cfg),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "seeds": {
                "dataset": cfg.simulation.dataset_seed,
                "training": cfg.training.seed,
            },
            "inputs": [str(p) for p in inputs],
            "outputs": {str(p.name): file_sha256(p) for p in outputs},
            "environment": environment,
        }
    )
    if diagnostics is not None:
        runs[-1]["diagnostics"] = diagnostics
    with atomic_open(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_history_csv(path: Path, history) -> None:
    with atomic_open(path) as fh:
        names = EpochRecord._fields
        fh.write(",".join(names) + "\n")
        for r in history:
            fh.write(",".join(map(repr, r)) + "\n")


def _trajectory_counters(traj) -> dict:
    return {
        "hydroxyl_clamped": traj.hydroxyl_clamped,
        "chemistry_infeasible": traj.chemistry_infeasible,
    }


def _metrics_dict(metrics) -> dict:
    return {
        "rmse_train_V": metrics.rmse_train_v,
        "rmse_test_V": metrics.rmse_test_v,
        "rmse_train_mem": metrics.rmse_train_mem,
        "rmse_test_mem": metrics.rmse_test_mem,
        "k5_hat_final": metrics.k5_hat_final,
    }


# -- commands ------------------------------------------------------------


def _simulate_into(cfg: RunConfig, out_dir: Path, k5):
    """Integrate the trajectory, then create ``out_dir`` and write the
    trajectory CSVs into it; returns ``(traj, paths)``."""
    traj = integrate_trajectory(
        cfg.physics, cfg.conditions, k5=k5, n_steps=cfg.simulation.n_steps
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / "trajectory.csv", out_dir / "trajectory_diagnostics.csv"]
    write_trajectory(traj, *paths)
    return traj, paths


def _dataset_into(cfg: RunConfig, traj, out_dir: Path):
    """Sample the dataset of ``traj`` into ``out_dir``; returns (ds, path)."""
    ds = generate_dataset(
        traj,
        cfg.simulation.n_train,
        cfg.simulation.n_test,
        cfg.simulation.train_fraction,
        cfg.simulation.dataset_seed,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.csv"
    save_dataset(ds, path, config_hash(cfg))
    return ds, path


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out_dir = Path(args.out)
    traj, paths = _simulate_into(cfg, out_dir, getattr(args, "k5", None))
    _append_manifest(
        out_dir, "simulate", cfg, paths, diagnostics=_trajectory_counters(traj)
    )
    print(f"wrote {paths[0]} ({len(traj.times)} samples)")
    return 0


def cmd_generate_data(args) -> int:
    cfg = _load(args)
    traj = integrate_trajectory(
        cfg.physics,
        cfg.conditions,
        k5=getattr(args, "k5", None),
        n_steps=cfg.simulation.n_steps,
    )
    out_dir = Path(args.out)
    ds, ds_path = _dataset_into(cfg, traj, out_dir)
    _append_manifest(
        out_dir, "generate-data", cfg, [ds_path, Path(str(ds_path) + ".meta.json")],
        diagnostics=_trajectory_counters(traj),
    )
    print(f"wrote {ds_path} ({len(ds.train_times)} train / {len(ds.test_times)} test)")
    return 0


def _train_into(
    cfg: RunConfig, ds, dataset_path: Path, out_dir: Path, label: str,
    loaded_dataset=False,
):
    """Train on ``ds``, the dataset that ``dataset_path`` holds, into
    ``out_dir``; returns (net, metrics). ``loaded_dataset``: ``ds`` was
    read from ``dataset_path`` by ``load_dataset``, not made in memory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.json"

    def hook(epoch, net):
        save_checkpoint(net, ckpt_path)

    net, metrics = train(
        ds, cfg.physics, cfg.conditions, cfg.training, checkpoint_hook=hook
    )
    save_checkpoint(net, ckpt_path)
    history_path = out_dir / "history.csv"
    _write_history_csv(history_path, metrics.loss_history)
    metrics_path = out_dir / "metrics.json"
    _write_text(metrics_path, json.dumps(_metrics_dict(metrics), indent=2) + "\n")
    _append_manifest(
        out_dir,
        f"train[{label}]",
        cfg,
        [ckpt_path, history_path, metrics_path],
        inputs=[dataset_path],
        loaded_dataset=loaded_dataset,
    )
    return net, metrics


def cmd_train(args) -> int:
    cfg = _load(args)
    dataset_path = Path(args.data)
    label = "ann" if not cfg.training.physics_enabled else "pinn"
    ds = load_dataset(dataset_path)
    net, metrics = _train_into(
        cfg, ds, dataset_path, Path(args.out), label, loaded_dataset=True
    )
    print(
        f"trained {label}: k5_hat={metrics.k5_hat_final:.4f} "
        f"test RMSE V={metrics.rmse_test_v:.5f} mem={metrics.rmse_test_mem:.6f}"
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    ckpt_path = Path(args.checkpoint)
    dataset_path = Path(args.data)
    net = load_checkpoint(ckpt_path)
    ds = load_dataset(dataset_path)
    metrics = evaluate(net, ds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.json"
    _write_text(metrics_path, json.dumps(_metrics_dict(metrics), indent=2) + "\n")
    _append_manifest(
        out_dir, "evaluate", cfg, [metrics_path], inputs=[ckpt_path, dataset_path],
        loaded_dataset=True,
    )
    print(json.dumps(_metrics_dict(metrics), indent=2))
    return 0


def cmd_reproduce(args) -> int:
    cfg = _load(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ann_cfg = replace(cfg, training=replace(cfg.training, **ANN_WEIGHTS))

    # The baseline ANN is trained in a forked child while this process
    # trains the PINN. A failure is reported for the first failing stage in
    # the order simulate, generate-data, train-pinn, train-ann.
    stage = "simulate"
    ann_stage = None
    try:
        traj, traj_paths = _simulate_into(cfg, out_dir, k5=None)

        stage = "generate-data"
        ds, ds_path = _dataset_into(cfg, traj, out_dir)

        # Both models train from the dataset in memory; dataset.csv holds
        # its values exactly (each float written as its repr).
        stage = "train-ann"
        ann_stage = ForkedStage(
            lambda: _train_into(ann_cfg, ds, ds_path, out_dir / "ann", "ann")[1]
        )
        stage = "train-pinn"
        _, pinn = _train_into(cfg, ds, ds_path, out_dir / "pinn", "pinn")

        stage = "train-ann"
        ann = ann_stage.result()
    except (PempinnError, OSError) as exc:
        failure = f"reproduction FAILED at stage {stage}: {exc}"
        report = {"status": "FAIL", "failed_stage": stage, "error": str(exc)}
        _write_text(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
        _write_text(out_dir / "report.txt", failure + "\n")
        print(failure, file=sys.stderr)
        raise
    finally:
        if ann_stage is not None:
            ann_stage.cancel()

    k5_target = cfg.physics.k5_true / K5_SCALE
    lo, hi = K5_RECOVERY_WINDOW
    checks = {
        "k5_recovery": lo * k5_target <= pinn.k5_hat_final <= hi * k5_target,
        "pinn_vs_ann_voltage": pinn.rmse_test_v * PINN_OVER_ANN_FACTOR
        < ann.rmse_test_v,
        "pinn_vs_ann_membrane": pinn.rmse_test_mem * PINN_OVER_ANN_FACTOR
        < ann.rmse_test_mem,
        "rmse_voltage_bound": pinn.rmse_test_v <= RMSE_BOUND_V,
        "rmse_membrane_bound": pinn.rmse_test_mem <= RMSE_BOUND_MEM,
    }

    rows = [
        ("Training RMSE (Voltage) [V]", ann.rmse_train_v, pinn.rmse_train_v),
        ("Testing RMSE (Voltage) [V]", ann.rmse_test_v, pinn.rmse_test_v),
        ("Training RMSE (Membrane) [cm]", ann.rmse_train_mem, pinn.rmse_train_mem),
        ("Testing RMSE (Membrane) [cm]", ann.rmse_test_mem, pinn.rmse_test_mem),
    ]
    lines = [
        f"{'Metric':38s} {'ANN':>12s} {'PINN':>12s}",
        "-" * 64,
    ]
    for name, a, b in rows:
        lines.append(f"{name:38s} {a:12.6f} {b:12.6f}")
    lines.append("")
    lines.append(f"k5_hat_final (target {k5_target}): {pinn.k5_hat_final:.4f}")
    lines.append("")
    for name, ok in checks.items():
        lines.append(f"{name:38s} {'PASS' if ok else 'FAIL'}")
    report_txt = "\n".join(lines) + "\n"
    _write_text(out_dir / "report.txt", report_txt)

    report = {
        "status": "PASS" if all(checks.values()) else "FAIL",
        "checks": checks,
        "ann": _metrics_dict(ann),
        "pinn": _metrics_dict(pinn),
    }
    _write_text(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    _append_manifest(
        out_dir,
        "reproduce",
        cfg,
        [
            *traj_paths,
            ds_path,
            Path(str(ds_path) + ".meta.json"),
            out_dir / "report.json",
            out_dir / "report.txt",
        ],
    )
    print(report_txt)
    return 0 if all(checks.values()) else 1


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pempinn",
        description="PEM electrolyzer degradation simulator and PINN calibration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="path to a run config JSON (default: packaged)")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument(
                "--seed", type=_non_negative_int, help="override dataset and training seeds"
            )

    p = sub.add_parser("simulate", help="integrate the clean ground-truth trajectory")
    common(p)
    p.add_argument("--k5", type=float, help="override the attack-rate constant")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate-data", help="simulate and sample a noisy dataset")
    common(p)
    p.add_argument("--k5", type=float, help="override the attack-rate constant")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train on a generated dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV from generate-data")
    p.add_argument("--epochs", type=_non_negative_int, help="override max_epochs")
    p.add_argument(
        "--no-physics",
        action="store_true",
        help="zero both physics residual weights (baseline ANN)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint against a dataset")
    common(p, seed=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "reproduce",
        help="run the full pipeline (simulate, data, PINN, ANN, report)",
    )
    common(p)
    p.add_argument("--epochs", type=_non_negative_int, help="override max_epochs")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArtifactFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
