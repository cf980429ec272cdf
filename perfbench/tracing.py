"""Span tracing of a losslab sweep from outside the package.

The package has no tracing of its own, so the tracer rebinds the
module-level names through which one layer calls the next (for example
``losslab.train.loss_grad``, which ``sgd_train`` looks up at call time)
to wrappers that record a span around each call.  ``Rng`` distribution
methods are wrapped on the class.  Everything is restored on exit.

A span is ``(name, start, end, parent, cell)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``cell`` the ``"i,j"`` grid
cell being run.  Spans stay in memory until the run ends.  Self time is
a span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

from losslab import cka, curvature, curves, sweep, train
from losslab.errors import DivergenceError
from losslab.rng import Rng

# (owner, attribute, span name).  One span name may cover several
# bindings of the same function, e.g. loss_grad as seen by train and curves.
TRACE_POINTS = [
    (sweep, "build_cell_dataset", "datasets.build_cell_dataset"),
    (sweep, "gen_blobs", "datasets.gen_blobs"),
    (sweep, "randomize_labels", "datasets.randomize_labels"),
    (sweep, "mixup_probes", "datasets.mixup_probes"),
    (sweep, "sgd_train", "train.sgd_train"),
    (sweep, "evaluate", "train.evaluate"),
    (train, "evaluate", "train.evaluate"),
    (curves, "evaluate", "train.evaluate"),
    (train, "epoch_batches", "train.epoch_batches"),
    (curves, "epoch_batches", "train.epoch_batches"),
    (train, "loss_grad", "model.loss_grad"),
    (curves, "loss_grad", "model.loss_grad"),
    (train, "forward", "model.forward"),
    (cka, "forward", "model.forward"),
    (curvature, "hvp", "model.hvp"),
    (sweep, "draw_metric_batch", "curvature.draw_metric_batch"),
    (sweep, "top_eigenvalue", "curvature.top_eigenvalue"),
    (sweep, "trace_hutchinson", "curvature.trace_hutchinson"),
    (sweep, "train_curve", "curves.train_curve"),
    (curves, "curve_point", "curves.curve_point"),
    (sweep, "curve_profile", "curves.curve_profile"),
    (sweep, "cka_between_models", "cka.cka_between_models"),
    (Rng, "permutation", "rng.permutation"),
    (Rng, "choose", "rng.choose"),
    (Rng, "uniforms", "rng.uniforms"),
    (Rng, "normals", "rng.normals"),
    (Rng, "rademacher", "rng.rademacher"),
    (Rng, "beta", "rng.beta"),
]

# Only the estimator results, for the accuracy check of an untraced run.
CAPTURE_POINTS = [
    (sweep, "top_eigenvalue", "curvature.top_eigenvalue"),
    (sweep, "trace_hutchinson", "curvature.trace_hutchinson"),
]

SPAN_FIELDS = ("name", "start", "end", "parent", "cell")


class Tracer:
    """Records spans, shape counts and estimator inputs of one sweep."""

    def __init__(self):
        self.spans: list = []
        self.shapes: Counter = Counter()  # (span name, layer dims, batch rows) -> calls
        self.counts: Counter = Counter()
        # one entry per measured replicate: inputs of the curvature
        # estimators and their results, checked against a dense Hessian later
        self.estimates: list[dict] = []
        self.cell = None
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.cell)
                if observe is not None:
                    observe(args, result, exc)

        traced.__wrapped__ = fn
        return traced

    # -- observers: counters recorded at the layer boundary ------------

    def _shape(self, name):
        def observe(args, result, exc):
            spec, _, batch = args[:3]
            self.shapes[(name, spec.layer_dims, batch.size)] += 1
        return observe

    def _sgd_train(self, args, result, exc):
        if isinstance(exc, DivergenceError):
            self.counts["train.diverged"] += 1
        elif result is not None:
            history = result[1]
            self.counts["train.epochs"] += len(history.records)
            self.counts["train.plateau_stops"] += int(history.stopped_by_plateau)

    def _top_eigenvalue(self, args, result, exc):
        if result is None:
            return
        spec, theta, batch, weight_decay = args[:4]
        self.counts["curvature.power_iterations"] += result.iterations
        self.estimates.append({
            "spec": spec, "theta": theta.copy(), "batch": batch,
            "weight_decay": weight_decay, "lambda_max": result.value,
        })

    def _trace_hutchinson(self, args, result, exc):
        if result is None:
            return
        self.counts["curvature.trace_probes"] += result.probes
        # run_cell calls trace_hutchinson right after top_eigenvalue on
        # the same model and batch
        self.estimates[-1]["trace"] = result.value

    def _observer(self, name):
        if name in ("model.loss_grad", "model.hvp"):
            return self._shape(name)
        return {
            "train.sgd_train": self._sgd_train,
            "curvature.top_eigenvalue": self._top_eigenvalue,
            "curvature.trace_hutchinson": self._trace_hutchinson,
        }.get(name)

    @contextlib.contextmanager
    def patched(self, points=None):
        """Rebind the trace points (all by default) and run_cell for the block."""
        points = TRACE_POINTS if points is None else points
        saved = []
        try:
            for owner, attr, name in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, self._observer(name)))
            original = sweep.run_cell
            saved.append((sweep, "run_cell", original))
            setattr(sweep, "run_cell", self._cell_runner(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _cell_runner(self, run_cell):
        traced = self.wrap("sweep.run_cell", run_cell)

        def run(grid, i, j):
            self.cell = f"{i},{j}"
            try:
                return traced(grid, i, j)
            finally:
                self.cell = None

        return run

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, and durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[idx]
            entry["durations"].append(end - start)
        return dict(out)

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly by a ``parent_name`` span."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
