#!/usr/bin/env python3
"""Benchmark of the pempinn CLI: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce_short --seed 1 --seconds 30 --trace 0

Workloads, metric names and units are read from ``BENCHMARK.json``. With
``--trace 0`` the run reports every end-to-end metric, with ``--trace 1``
every per-layer metric. It prints a readable table, then as its last line
``{"correct", "attempted", "failed", "metrics"}`` as JSON. ``--workload all``
runs each workload in turn and prints their tables.

Processes: ``SETUP_PROBES`` fresh interpreters each time one set-up (import
``pempinn.cli``, load and validate the packaged config) for ``setup_s``;
then one worker process (``worker.py``) prepares the workload's inputs and
runs it. All of them get ``src/`` on ``PYTHONPATH`` and one BLAS thread.
Scratch files go to ``.bench_work/`` under the root and are removed at the
end, except the traced run's ``spans-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Every process of one run ends within this many seconds of its start.
BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The run could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv, deadline, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(
        [sys.executable, *map(str, argv)], env=child_env(), cwd=ROOT,
        start_new_session=True, **kwargs,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{argv[0]} timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(map(str, argv))} exited {proc.returncode}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def setup_seconds(deadline: float) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = run_child(
            [HERE / "worker.py", "--probe"], deadline,
            stdout=subprocess.PIPE, text=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if trace else setup_seconds(deadline)
        with open(work / "stderr.txt", "w+") as err:
            try:
                run_child(
                    [HERE / "worker.py", "--workload", workload, "--seed", seed,
                     "--seconds", seconds, "--trace", int(trace),
                     "--work", work],
                    deadline, stdout=subprocess.DEVNULL, stderr=err,
                )
            except BenchmarkError:
                err.seek(0)
                sys.stderr.write(err.read()[-4000:])
                raise
        result = json.loads((work / "result.json").read_text())
        if trace:
            shutil.move(work / "spans.json", work_root / f"spans-{workload}-s{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        measured = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "wall_s": result["wall_s"],
            "items_per_s": result["items_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    result["metrics"] = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }
    return result


def print_table(workload, seed, trace, result) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {result['passes']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_rate':36s} {failed / attempted:14.6g} failed/attempted"
          f" ({failed}/{attempted})")
    if trace:
        layers = result["per_layer"]
        print(f"  self times sum to {layers['trace.self_sum_s']:.6g} s of traced"
              f" wall_s {layers['trace.wall_s']:.6g} s")
    else:
        print(f"  wall_s over {result['passes']} passes: min {result['wall_min_s']:.6g}"
              f" s, max {result['wall_max_s']:.6g} s")
        if any(result["numerics"].values()):
            for name, value in result["numerics"].items():
                print(f"  {name:36s} {value:14.6g} (deterministic for the seed)")
    for error in result["errors"]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pempinn CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that the children's
    # process groups are killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "pempinn" / "cli.py").is_file():
        print(f"error: no pempinn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)

    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(spec, workload, args.seed, seconds, trace)
        except BenchmarkError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_table(workload, args.seed, trace, result)
        results[workload] = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
