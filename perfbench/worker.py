"""Workload child process of the pempinn benchmark.

``run.py`` starts this file in a fresh interpreter with ``src/`` on the
path and the BLAS thread variables set to 1. It imports ``pempinn.cli``,
prepares the workload's inputs from the seed (untimed), then runs passes of
the workload back to back, one client in a closed loop, until ``--seconds``
have passed and at least ``MIN_PASSES`` passes are done. A pass is one or
more ``pempinn.cli.main`` calls; its wall time is the sum of those calls.
Every pass's outputs are checked after its clock stops. The result goes to
``<work>/result.json``.

With ``--trace 1`` the passes alternate untraced and traced, so the tracing
overhead is the difference of the two medians.

``--probe`` instead times one set-up (import ``pempinn.cli``, load and
validate the packaged config) and prints it; ``--reference`` prints the RMSEs that
evaluate_dense expects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGED_CONFIG = ROOT / "src" / "pempinn" / "data" / "default_config.json"
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# PINN and ANN each train this many epochs in one reproduce_short pass. The
# results are deterministic for the seed but far from converged.
REPRODUCE_EPOCHS = 100
# datagen_sweep integrates each grid size once with simulate and once with
# generate-data, in a seed-shuffled order with seed-drawn k5 values; the
# total work per pass is the same for every seed.
SWEEP_STEPS = (2048, 4096, 8192, 16384)
SWEEP_K5 = (700.0, 1300.0)
# evaluate_dense reads a test split of this many rows.
DENSE_TEST_ROWS = 100_000
DENSE_CKPT_EPOCHS = 20
# Deterministic results of the short PINN run; 0 on workloads that train none.
NUMERIC_NAMES = ("k5_hat_abs_err", "pinn_rmse_test_v_mV", "pinn_rmse_test_mem_um")


def write_config(path: Path, **overrides) -> Path:
    data = json.loads(PACKAGED_CONFIG.read_text())
    data.update(overrides)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path) -> list:
    """Errors when a manifest output does not hash to its recorded sha256."""
    errors = []
    for run in json.loads((out / "manifest.json").read_text())["runs"]:
        for name, digest in run["outputs"].items():
            if sha256(out / name) != digest:
                errors.append(f"{out / name}: sha256 differs from manifest")
    return errors


class Call:
    """One timed ``pempinn.cli.main`` call, with a root span when traced."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None

    def __call__(self, argv):
        """Returns (exit code, or the exception that escaped main; seconds)."""
        start = perf()
        try:
            code = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        end = perf()
        if self.tracer is not None:
            self.tracer.spans.append(("cli.self", start, end, None))
        return code, end - start


class ReproduceShort:
    """``pempinn reproduce --epochs E --seed S`` on the packaged config."""

    items_per_pass = 2 * REPRODUCE_EPOCHS  # PINN + ANN epochs

    def __init__(self, work, seed):
        self.seed = seed
        self.reference = None
        self.numerics = dict.fromkeys(NUMERIC_NAMES, 0.0)

    def prepare(self):
        pass

    def run(self, out, call):
        code, wall = call(
            ["reproduce", "--epochs", REPRODUCE_EPOCHS, "--seed", self.seed,
             "--out", out]
        )
        return wall, [lambda: self.check(out, code)]

    def check(self, out, code):
        # Exit 1 only says the short run misses the acceptance gates, which
        # judge full-length training.
        if code not in (0, 1):
            return [f"reproduce exited {code}"]
        report = json.loads((out / "report.json").read_text())
        values = [v for side in ("pinn", "ann") for v in report[side].values()]
        if not all(math.isfinite(v) for v in values):
            return [f"report.json holds a non-finite metric: {report}"]
        files = {
            name: (out / name).read_bytes()
            for name in ("report.json", "pinn/history.csv", "ann/history.csv")
        }
        if self.reference is None:
            self.reference = files
        changed = [name for name in files if files[name] != self.reference[name]]
        if changed:
            return [f"same seed, different bytes: {', '.join(changed)}"]
        pinn = report["pinn"]
        self.numerics = {
            "k5_hat_abs_err": abs(pinn["k5_hat_final"] - 1.0),
            "pinn_rmse_test_v_mV": 1e3 * pinn["rmse_test_V"],
            "pinn_rmse_test_mem_um": 1e4 * pinn["rmse_test_mem"],
        }
        return []


class DatagenSweep:
    """``pempinn simulate`` and ``generate-data`` over an n_steps / k5 grid."""

    items_per_pass = 2 * sum(SWEEP_STEPS)  # RK4 steps

    def __init__(self, work, seed):
        self.work = work
        rng = random.Random(seed)
        plan = [(cmd, n) for n in SWEEP_STEPS for cmd in ("simulate", "generate-data")]
        rng.shuffle(plan)
        self.plan = [
            (cmd, n, rng.uniform(*SWEEP_K5), rng.randrange(2**31)) for cmd, n in plan
        ]
        self.reference = {}
        self.numerics = dict.fromkeys(NUMERIC_NAMES, 0.0)

    def prepare(self):
        self.configs = {
            n: write_config(self.work / f"config-{n}.json", n_steps=n)
            for n in SWEEP_STEPS
        }

    def run(self, out, call):
        wall = 0.0
        checks = []
        for i, (cmd, n, k5, seed) in enumerate(self.plan):
            d = out / f"{i}-{cmd}-{n}"
            code, dt = call(
                [cmd, "--config", self.configs[n], "--out", d, "--k5", repr(k5),
                 "--seed", seed]
            )
            wall += dt
            checks.append(lambda d=d, code=code, i=i: self.check(d, code, i))
        return wall, checks

    def check(self, out, code, i):
        if code != 0:
            return [f"{self.plan[i][0]} exited {code}"]
        errors = check_manifest(out)
        outputs = json.loads((out / "manifest.json").read_text())["runs"][0]["outputs"]
        if self.reference.setdefault(i, outputs) != outputs:
            errors.append(f"{out}: same inputs, different output bytes")
        return errors


class EvaluateDense:
    """``pempinn evaluate`` of one checkpoint on a ~1e5-row dataset."""

    items_per_pass = 100 + DENSE_TEST_ROWS  # dataset rows evaluated

    def __init__(self, work, seed):
        self.work = work
        rng = random.Random(seed)
        self.k5 = rng.uniform(*SWEEP_K5)
        self.data_seed = rng.randrange(2**31)
        self.train_seed = rng.randrange(2**31)
        self.expected = None
        self.numerics = dict.fromkeys(NUMERIC_NAMES, 0.0)

    def prepare(self):
        """Make the dataset and checkpoint with the CLI in child processes."""
        config = write_config(self.work / "config-dense.json", n_test=DENSE_TEST_ROWS)
        data = self.work / "data"
        ckpt = self.work / "ckpt"
        self.dataset = data / "dataset.csv"
        self.checkpoint = ckpt / "checkpoint.json"
        for argv in (
            ["-m", "pempinn.cli", "generate-data", "--config", config, "--out", data,
             "--seed", self.data_seed, "--k5", repr(self.k5)],
            ["-m", "pempinn.cli", "train", "--config", config, "--data",
             self.dataset, "--out", ckpt, "--seed", self.train_seed, "--epochs",
             DENSE_CKPT_EPOCHS, "--no-physics"],
            # Its own process, so that its memory stays out of peak_rss_mb.
            [__file__, "--reference", self.checkpoint, self.dataset],
        ):
            done = subprocess.run(
                [sys.executable, *map(str, argv)],
                check=True, stdout=subprocess.PIPE, text=True, timeout=120,
            )
        self.expected = json.loads(done.stdout.splitlines()[-1])

    def run(self, out, call):
        code, wall = call(
            ["evaluate", "--checkpoint", self.checkpoint, "--data", self.dataset,
             "--out", out]
        )
        return wall, [lambda: self.check(out, code)]

    def check(self, out, code):
        if code != 0:
            return [f"evaluate exited {code}"]
        got = json.loads((out / "metrics.json").read_text())
        bad = [
            key for key, want in self.expected.items()
            if not math.isclose(got[key], want, rel_tol=1e-9, abs_tol=1e-15)
        ]
        if bad:
            return [f"metrics.json differs from the numpy recomputation: {bad}"]
        return []


def reference_metrics(checkpoint: Path, dataset: Path) -> dict:
    """RMSEs of a checkpoint on a dataset, recomputed with plain numpy."""
    import numpy as np

    ckpt = json.loads(checkpoint.read_text())
    split = np.loadtxt(dataset, delimiter=",", skiprows=1, usecols=0, dtype=str)
    t, v, m = np.loadtxt(
        dataset, delimiter=",", skiprows=1, usecols=(1, 2, 3), unpack=True
    )
    layers = list(zip(ckpt["weights"], ckpt["biases"]))
    a = (t / ckpt["input_scale"])[None, :]
    for i, (w, b) in enumerate(layers):
        a = np.asarray(w) @ a + np.asarray(b)[:, None]
        if i < len(layers) - 1:
            a = 1.0 / (1.0 + np.exp(-a))
    pred_v = ckpt["v_ref"] * a[0]
    pred_m = ckpt["t_mem_ref"] * a[1]
    out = {"k5_hat_final": ckpt["k5_hat"]}
    for name in ("train", "test"):
        sel = split == name
        out[f"rmse_{name}_V"] = float(np.sqrt(np.mean((pred_v[sel] - v[sel]) ** 2)))
        out[f"rmse_{name}_mem"] = float(np.sqrt(np.mean((pred_m[sel] - m[sel]) ** 2)))
    return out


WORKLOADS = {
    "reproduce_short": ReproduceShort,
    "datagen_sweep": DatagenSweep,
    "evaluate_dense": EvaluateDense,
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    from pempinn import _kernel

    selected = getattr(_kernel, "numba_selected", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_selected": selected() if selected is not None else False,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def probe() -> None:
    start = perf()
    import pempinn.cli as cli

    cli.load_config(PACKAGED_CONFIG)
    print(json.dumps({"setup_s": perf() - start}))


def measure(workload, work: Path, seconds: float, trace: bool) -> dict:
    import pempinn.cli as cli

    from spans import Tracer

    call = Call(cli)
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    layers = []
    traces = []
    attempted = 0
    failed = 0
    errors = []
    deadline = perf() + seconds
    i = 0
    while i < MIN_PASSES or perf() < deadline:
        traced = trace and i % 2 == 1
        out = work / f"pass-{i}"
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            call.tracer = tracer
        try:
            wall, checks = workload.run(out, call)
        finally:
            if traced:
                tracer.uninstall()
                call.tracer = None
        walls[traced].append(wall)
        if traced:
            summary = tracer.summarize()
            summary["trace.wall_s"] = wall
            summary["autodiff.gc_share_pct"] = (
                100.0 * summary["autodiff.gc_pause_s"] / wall
            )
            layers.append(summary)
            traces.append({"pass": i, "spans": tracer.spans})
        for check in checks:
            attempted += 1
            try:
                found = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"pass {i}: {type(exc).__name__}: {exc}"]
            failed += bool(found)
            errors += found
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    untraced = walls[False]
    result = {
        "passes": i,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "wall_s": statistics.median(untraced),
        "wall_min_s": min(untraced),
        "wall_max_s": max(untraced),
        "items_per_s": statistics.median(
            workload.items_per_pass / w for w in untraced
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numerics": workload.numerics,
    }
    if trace:
        per_layer = {
            key: statistics.median(s[key] for s in layers) for key in layers[0]
        }
        per_layer["trace.untraced_wall_s"] = result["wall_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - result["wall_s"]
        per_layer.update(workload.numerics)
        result["per_layer"] = per_layer
        (work / "spans.json").write_text(json.dumps(traces) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--reference", nargs=2, type=Path,
                        metavar=("CHECKPOINT", "DATASET"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)
    if args.probe:
        probe()
        return 0
    if args.reference:
        print(json.dumps(reference_metrics(*args.reference)))
        return 0

    workload = WORKLOADS[args.workload](args.work, args.seed)
    workload.prepare()
    result = measure(workload, args.work, args.seconds, bool(args.trace))
    result["env"] = environment()
    (args.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
