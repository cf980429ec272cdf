"""Per-layer timings of the RNG stream, its consumers and the per-epoch evaluation, two trees side by side.

Usage, from the repository root::

    python3 benchmarks/bench_rng.py --parent DIR [--rounds 5] [--out BENCH_10.json]

``DIR`` is the ``src`` directory of the tree to compare against (for
example ``git archive`` of the parent commit, unpacked).  Each round
measures the parent tree and then this tree, each in a fresh process, so
both sides run on the same machine at nearly the same time; the record
keeps every round's value and the median over rounds.  A metric a tree
does not have is ``null`` there; ``measure`` itself needs the RNG jump
table (``rng._table``) and an ``evaluate`` that takes a stack of models.

The RNG's consumer is timed as the sweep calls it: ``mixup_probes`` at
the ``curvature_heavy`` workload's 4,000 probes.  The curvature
estimators draw no more than one start vector, and ``bench_hessian.py``
times them.

Each value is the median of ``REPS`` timed calls, in microseconds per
call (the jump table's build in milliseconds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPS = 30
STACKS = [(1, 1000), (2, 1000), (4, 1000)]
RAW_SIZES = [212, 2000, 8000, 16384, 65536]
MIXUP_PROBES = 4000
HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"


def _median_us(fn) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def measure() -> dict:
    """Every metric of the ``losslab`` on ``sys.path``, as one flat dict."""
    import numpy as np

    from losslab import rng as rng_module
    from losslab.datasets import gen_blobs, mixup_probes
    from losslab.model import ModelSpec, ParamVector, he_init
    from losslab.rng import Rng
    from losslab.train import epoch_batches, evaluate

    out = {}
    rng_module._jump_table = None
    start = time.perf_counter()
    rng_module._table()
    out["rng.jump_table.build_ms"] = (time.perf_counter() - start) * 1e3
    for count, n in STACKS:
        rngs = [Rng(s) for s in range(count)]
        # one stack epoch's shuffle, as the trainers draw it
        out[f"rng.stack_permutation.R{count}_n{n}.us"] = _median_us(
            lambda: epoch_batches(n, n, rngs))
    for n in RAW_SIZES:
        r = Rng(3)
        out[f"rng.raw.n{n}.us"] = _median_us(lambda: r._raw(n))
    blobs = gen_blobs(1000, 4, 8, 0.15, seed=1)
    out[f"datasets.mixup_probes.m{MIXUP_PROBES}.us"] = _median_us(
        lambda: mixup_probes(blobs, m=MIXUP_PROBES, alpha=16.0, seed=5))

    # the evaluation after one epoch of 4 replicates: full train and test sets
    spec = ModelSpec(input_dim=8, hidden_widths=(16,), num_classes=4)
    train = gen_blobs(1000, 4, 8, 0.15, seed=1)
    test = gen_blobs(200, 4, 8, 0.15, seed=2)
    thetas = [he_init(spec, Rng(s)) for s in range(4)]
    out["train.epoch_evaluate.per_model.us"] = _median_us(
        lambda: [evaluate(spec, t, ds) for t in thetas for ds in (train, test)])
    stack = ParamVector(spec.layout(), np.stack([t.values for t in thetas]))
    alone = [evaluate(spec, t, train).loss for t in thetas]
    if evaluate(spec, stack, train).loss.tolist() != alone:
        raise SystemExit("stacked evaluate differs from per-model evaluate")
    out["train.epoch_evaluate.stacked.us"] = _median_us(
        lambda: [evaluate(spec, stack, ds) for ds in (train, test)])
    return out


def run_side(script: Path, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(script), "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")
        blas = info.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        pass
    return {"machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def compare_trees(script: Path, doc: str, measure, reps: int, default_out: str, argv=None) -> int:
    """The command line of a two-tree benchmark ``script`` whose ``measure`` returns a flat dict."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path, help="src directory of the tree to compare against")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path(default_out))
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    rounds = {"parent": [], "change": []}
    for _ in range(args.rounds):
        rounds["parent"].append(run_side(script, args.parent.resolve()))
        rounds["change"].append(run_side(script, SRC))
    metrics = {}
    for name in rounds["change"][0]:
        entry = {}
        for side, runs in rounds.items():
            values = [run.get(name) for run in runs]
            entry[side] = None if None in values else statistics.median(values)
            entry[f"{side}_rounds"] = values
        metrics[name] = entry
    record = {"command": f"python3 benchmarks/{script.name} --parent DIR --rounds "
                         f"{args.rounds}", "reps_per_value": reps,
              "environment": environment(), "metrics": metrics}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, entry in metrics.items():
        print(f"{name:48s} parent {entry['parent']}  change {entry['change']}")
    return 0


def main(argv=None) -> int:
    return compare_trees(HERE, __doc__, measure, REPS, "BENCH_10.json", argv)


if __name__ == "__main__":
    sys.exit(main())
