"""Per-layer timings of the Hessian-vector product and the curvature estimators, two trees side by side.

Usage, from the repository root::

    python3 benchmarks/bench_hessian.py --parent DIR [--rounds 5] [--out BENCH_11.json]

``DIR`` is the ``src`` directory of the tree to compare against (for
example ``git archive`` of the parent commit, unpacked).  Each round
measures the parent tree and then this tree, each in a fresh process, so
both sides run on the same machine at nearly the same time; the record
keeps every round's value and the median over rounds.  Both trees must
construct the operator as ``model.HessianOperator(spec, theta, batch,
weight_decay)``.  The command line is ``bench_rng.py``'s.

An application is one ``hvp`` call as the curvature estimators make it:
the operator is constructed once and passed to ``hvp``.  Each timing is
the median of ``REPS`` calls, in microseconds (``exact_hessian``: the
median of 5, in milliseconds).  Page faults are the minor faults of
``FAULT_CALLS`` applications, per application, measured first in the
process.

The estimators ``top_eigenvalue`` and ``trace_hutchinson`` are timed as
the ``curvature_heavy`` workload calls them (max_iter 50, rtol 1e-12) on
an untrained one-hidden-layer net (P = 212, 200 rows) and a
two-hidden-layer net (P = 1,476, 1,000 rows): microseconds per call
(the median of ``ESTIMATOR_REPS``) and the Hessian products each call
used.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

from bench_rng import compare_trees

REPS = 50
WEIGHT_DECAY = 5e-4
APPLY_SHAPES = [
    ((8, 16, 4), 200),
    ((8, 2, 4), 200),
    ((8, 16, 16, 4), 1000),
    ((8, 24, 24, 4), 1000),
    ((8, 32, 32, 4), 1000),
]
DENSE_SHAPES = [((8, 16, 4), 200), ((8, 16, 16, 4), 200)]  # P = 212 and 484
FAULT_SHAPE = ((8, 32, 32, 4), 1000)
FAULT_CALLS = 300
ESTIMATOR_NETS = [((8, 16, 4), 200), ((8, 32, 32, 4), 1000)]  # P = 212 and 1,476
ESTIMATOR_REPS = 10
HERE = Path(__file__).resolve()


def _median(fn, reps=None) -> float:
    times = []
    for _ in range(REPS if reps is None else reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _name(dims, rows) -> str:
    return "-".join(map(str, dims)) + f"_B{rows}"


def measure() -> dict:
    """Every metric of the ``losslab`` on ``sys.path``, as one flat dict."""
    import numpy as np

    from losslab.curvature import CurvatureConfig, top_eigenvalue, trace_hutchinson
    from losslab.datasets import gen_blobs
    from losslab.model import (
        Batch, HessianOperator, ModelSpec, ParamVector, exact_hessian, he_init, hvp)
    from losslab.rng import Rng

    def instance(dims, rows):
        r = Rng(0)
        spec = ModelSpec(dims[0], tuple(dims[1:-1]), dims[-1])
        theta = he_init(spec, r.split("theta"))
        X = r.split("X").normals(rows * dims[0]).reshape(rows, dims[0])
        y = r.split("y").choose(rows, rows) % dims[-1]
        v = ParamVector(spec.layout(), r.split("v").normals(spec.param_count))
        return spec, theta, Batch(X, y), v

    def application(spec, theta, batch, v):
        op = HessianOperator(spec, theta, batch, WEIGHT_DECAY)
        return lambda: hvp(spec, op, batch, WEIGHT_DECAY, v)

    out = {}
    # first, while the allocator is as a fresh process leaves it: once a
    # large block has been freed, glibc serves blocks up to its size from
    # the heap and later temporaries stop faulting
    apply = application(*instance(*FAULT_SHAPE))
    apply()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_CALLS):
        apply()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    out[f"hvp.apply.{_name(*FAULT_SHAPE)}.minflt_per_call"] = faults / FAULT_CALLS
    for dims, rows in APPLY_SHAPES:
        spec, theta, batch, v = instance(dims, rows)
        apply = application(spec, theta, batch, v)
        once = hvp(spec, theta, batch, WEIGHT_DECAY, v).values
        if not np.array_equal(apply().values, once):
            raise SystemExit(f"applications differ from a one-shot hvp at {_name(dims, rows)}")
        out[f"hvp.apply.{_name(dims, rows)}.us"] = _median(apply) * 1e6
        out[f"hvp.build.{_name(dims, rows)}.us"] = _median(
            lambda: HessianOperator(spec, theta, batch, WEIGHT_DECAY)) * 1e6
    for dims, rows in DENSE_SHAPES:
        spec, theta, batch, _ = instance(dims, rows)
        out[f"exact_hessian.P{spec.param_count}.ms"] = _median(
            lambda: exact_hessian(spec, theta, batch, WEIGHT_DECAY), reps=5) * 1e3
    cfg = CurvatureConfig(max_iter=50, rtol=1e-12, seed=2)
    for dims, rows in ESTIMATOR_NETS:
        spec = ModelSpec(dims[0], tuple(dims[1:-1]), dims[-1])
        theta = he_init(spec, Rng(4))
        data = gen_blobs(rows, dims[-1], dims[0], 0.15, seed=3)
        batch = Batch(data.X, data.y)
        eig = top_eigenvalue(spec, theta, batch, WEIGHT_DECAY, cfg)
        tr = trace_hutchinson(spec, theta, batch, WEIGHT_DECAY, cfg)
        name = f"P{spec.param_count}_B{rows}"
        out[f"curvature.top_eigenvalue.{name}.us"] = _median(
            lambda: top_eigenvalue(spec, theta, batch, WEIGHT_DECAY, cfg), ESTIMATOR_REPS) * 1e6
        out[f"curvature.top_eigenvalue.{name}.products"] = float(eig.iterations)
        out[f"curvature.trace_hutchinson.{name}.us"] = _median(
            lambda: trace_hutchinson(spec, theta, batch, WEIGHT_DECAY, cfg), ESTIMATOR_REPS) * 1e6
        out[f"curvature.trace_hutchinson.{name}.products"] = float(tr.probes)
    return out


def main(argv=None) -> int:
    return compare_trees(HERE, __doc__, measure, REPS, "BENCH_11.json", argv)


if __name__ == "__main__":
    sys.exit(main())
