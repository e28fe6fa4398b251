"""In-memory span tracer for the pempinn layers.

The tracer lives outside ``src/``: it wraps the layers' functions at the
names their callers resolve (``pempinn.cli.train``, not
``pempinn.training.train``) and restores every original on
:meth:`Tracer.uninstall`. A span is ``(name, start, end, tag)``; parents are
recovered afterwards from how the intervals nest, so a span's self time is
its duration minus the durations of the spans directly inside it, and the
self times of one CLI call add up to that call's wall time. Garbage
collector pauses are spans too, fed by ``gc.callbacks``.

Counters sit beside the spans. They come from the values the layers return
(``Trajectory``, ``Dataset``, ``Metrics``) and from one walk of the loss
graph per training run, so they repeat exactly for a given input.

A wrapped name that a later version of the program no longer has is
skipped, and its metric reads 0.
"""

from __future__ import annotations

import gc
import os
import time

perf = time.perf_counter

ROOT_SPAN = "cli.self"
GC_SPAN = "autodiff.gc_pause"

# Every span name the tracer can record; each becomes the metric
# "<name>_s", the summed self time of those spans in one pass.
SPAN_NAMES = (
    ROOT_SPAN,
    "config.load",
    "config.hash",
    "simulator.integrate",
    "kernel.rk4",
    "simulator.generate_dataset",
    "simulator.save_trajectory",
    "simulator.save_dataset",
    "simulator.load_dataset",
    "network.checkpoint_write",
    "network.checkpoint_read",
    "training.loop",
    "training.evaluate",
    "network.predict",
    "network.lift",
    "network.gradients",
    "training.loss",
    "network.forward",
    "training.residual_v",
    "training.residual_m",
    "degradation.hydroxyl_chain",
    "training.adam",
    "autodiff.backward",
    GC_SPAN,
)

COUNT_NAMES = (
    "autodiff.graph_nodes_pinn",
    "autodiff.graph_nodes_ann",
    "simulator.rk4_steps",
    "simulator.rows_written",
    "simulator.bytes_written",
    "simulator.rows_read",
    "degradation.hydroxyl_clamped",
    "degradation.chemistry_infeasible",
    "training.output_clamped",
)

MIB = float(2**20)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.newton_iters = 0
        self.newton_solves = 0
        self.payload_bytes_pinn = 0
        self.mode = None        # "pinn" or "ann" while a training run is open
        self._walked = set()
        self._gc_start = 0.0

    def add(self, name, n):
        self.counts[name] += int(n)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as a span; ``before`` may return the span's tag."""

        def wrapper(*args, **kwargs):
            tag = before(args, kwargs) if before is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, perf(), tag))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf()
        else:
            self.spans.append((GC_SPAN, self._gc_start, perf(), None))

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original)``, if the attribute exists."""
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr, name, before=None, after=None):
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, before, after))

    def install(self):
        from pempinn import _kernel, autodiff, cli, network, training

        self.patch(cli, "load_config", "config.load")
        self.patch(cli, "config_hash", "config.hash")
        self.patch(cli, "integrate_trajectory", "simulator.integrate",
                   after=self._count_trajectory)
        self.patch(cli, "generate_dataset", "simulator.generate_dataset")
        self.patch(cli, "save_trajectory", "simulator.save_trajectory",
                   after=self._count_trajectory_written)
        self.patch(cli, "save_dataset", "simulator.save_dataset",
                   after=self._count_dataset_written)
        self.patch(cli, "load_dataset", "simulator.load_dataset",
                   after=self._count_rows_read)
        self.patch(cli, "save_checkpoint", "network.checkpoint_write")
        self.patch(cli, "load_checkpoint", "network.checkpoint_read")
        self.patch(cli, "train", "training.loop",
                   before=self._open_training, after=self._close_training)
        self.patch(cli, "evaluate", "training.evaluate")
        self.patch(training, "evaluate", "training.evaluate")
        self.patch(training, "predict", "network.predict")
        self.patch(network.LiftedParameters, "gradients", "network.gradients")
        self.patch(training, "LiftedParameters", "network.lift")
        self.patch(training, "composite_loss", "training.loss")
        self.patch(training, "mlp_forward", "network.forward")
        self.patch(training, "voltage_residual_terms", "training.residual_v")
        self.patch(training, "thinning_residual_terms", "training.residual_m")
        self.patch(training, "hydroxyl_chain", "degradation.hydroxyl_chain")
        self.patch(training, "adam_step", "training.adam")
        self.patch(autodiff.Value, "backward", "autodiff.backward",
                   before=self._walk_graph)

        def traced_kernels(get_kernels):
            def wrapper():
                *rest, rk4 = get_kernels()
                return (*rest, self.wrap("kernel.rk4", rk4))

            return wrapper

        self.replace(_kernel, "get_kernels", traced_kernels)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def _count_trajectory(self, args, kwargs, traj):
        self.add("simulator.rk4_steps", len(traj.times) - 1)
        self.newton_iters += int(traj.solver_iterations.sum())
        self.newton_solves += len(traj.solver_iterations)
        self.add("degradation.hydroxyl_clamped", traj.hydroxyl_clamped)
        self.add("degradation.chemistry_infeasible", traj.chemistry_infeasible)

    def _count_trajectory_written(self, args, kwargs, result):
        traj, *paths = args
        paths = [p for p in paths if p is not None]
        self.add("simulator.rows_written", len(traj.times) * len(paths))
        self.add("simulator.bytes_written", sum(os.path.getsize(p) for p in paths))

    def _count_dataset_written(self, args, kwargs, result):
        ds, path = args[0], args[1]
        self.add("simulator.rows_written", len(ds.train_times) + len(ds.test_times))
        self.add(
            "simulator.bytes_written",
            os.path.getsize(path) + os.path.getsize(str(path) + ".meta.json"),
        )

    def _count_rows_read(self, args, kwargs, ds):
        self.add("simulator.rows_read", len(ds.train_times) + len(ds.test_times))

    def _open_training(self, args, kwargs):
        config = kwargs["config"] if "config" in kwargs else args[3]
        self.mode = "pinn" if config.physics_enabled else "ann"
        return self.mode

    def _close_training(self, args, kwargs, result):
        self.mode = None
        metrics = result[1]
        self.add("degradation.hydroxyl_clamped", metrics.hydroxyl_clamped)
        self.add("degradation.chemistry_infeasible", metrics.chemistry_infeasible)
        self.add("training.output_clamped", metrics.output_clamped)

    def _walk_graph(self, args, kwargs):
        """Count the loss graph's nodes and payload once per training mode.

        Every epoch builds the same graph, so the first one stands for all.
        """
        mode = self.mode
        if mode is None or mode in self._walked:
            return None
        self._walked.add(mode)
        root = args[0]
        seen = {id(root)}
        stack = [root]
        payload = 0
        while stack:
            node = stack.pop()
            payload += getattr(node.data, "nbytes", 8)
            for parent in getattr(node, "_parents", ()):
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        self.counts[f"autodiff.graph_nodes_{mode}"] = len(seen)
        if mode == "pinn":
            self.payload_bytes_pinn = payload
        return None

    # -- summary -----------------------------------------------------------

    def summarize(self):
        """Per-layer metrics of the pass just traced (spans outside a CLI call
        are dropped)."""
        spans = self.spans
        n = len(spans)
        own = [end - start for _, start, end, _ in spans]
        parent = [-1] * n
        root = list(range(n))
        stack = []
        for i in sorted(range(n), key=lambda i: (spans[i][1], -spans[i][2])):
            start = spans[i][1]
            while stack and spans[stack[-1]][2] <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                root[i] = root[parent[i]]
                own[parent[i]] -= spans[i][2] - start
            stack.append(i)

        out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        gc_count = 0
        epochs = {"pinn": [0.0, 0], "ann": [0.0, 0]}
        for i, (name, start, end, tag) in enumerate(spans):
            if spans[root[i]][0] != ROOT_SPAN:
                continue
            out[f"{name}_s"] += own[i]
            gc_count += name == GC_SPAN
            p = parent[i]
            if p >= 0 and spans[p][0] == "training.loop":
                # An epoch is the loop body: everything in the training run
                # except the final evaluation.
                mode = spans[p][3]
                if name == "training.adam":
                    epochs[mode][1] += 1
                elif name == "training.evaluate":
                    epochs[mode][0] -= end - start
            if name == "training.loop":
                epochs[tag][0] += end - start

        out.update(self.counts)
        out["autodiff.gc_collections"] = gc_count
        out["autodiff.payload_mb_per_epoch"] = self.payload_bytes_pinn / MIB
        out["simulator.newton_iters_per_solve"] = (
            self.newton_iters / self.newton_solves if self.newton_solves else 0.0
        )
        for mode, (seconds, count) in epochs.items():
            out[f"training.{mode}_epoch_ms"] = 1e3 * seconds / count if count else 0.0
        out["trace.self_sum_s"] = sum(
            own[i] for i in range(n) if spans[root[i]][0] == ROOT_SPAN
        )
        return out
