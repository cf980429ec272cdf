"""Per-layer timings of the RNG stream, its consumers and the per-epoch evaluation, two trees side by side.

Usage, from the repository root::

    python3 benchmarks/bench_rng.py --parent DIR [--rounds 5] [--out BENCH_26.json]

``DIR`` is the ``src`` directory of the tree to compare against (for
example ``git archive`` of the parent commit, unpacked).  Each round
measures both trees, each in a fresh process, so both sides run on the
same machine at nearly the same time.  The parent runs first in even
rounds (0, 2, ...) and second in odd ones, so a host that drifts over the
run does not read as a difference between the trees.  The record keeps
every round's value, the median over rounds, each round's change/parent
ratio and the number of rounds in which the change read lower.  A metric
a tree does not have is ``null`` there.  As the ``losslab`` command line does,
each side runs with one BLAS thread unless the caller set one of
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``.
``measure`` itself needs ``rng.raw_outputs`` and an ``evaluate`` that
takes a stack of models.  ``curves.train_curve.epoch_b4`` is timed only
on a tree whose ``train_curve`` takes one config and a seed per pair.

The per-epoch evaluation is timed first in the process, before any
random draw: the RNG timings' large temporaries change what the
allocator holds, and with it the cost of ``evaluate``'s temporaries.

The RNG's consumers are timed as the sweep calls them: ``mixup_probes``
at the ``curvature_heavy`` workload's 4,000 probes, and its Beta weights
alone as ``rng.beta.n4000``; ``randomize_labels`` at noise fraction 0.4
on 1,000 rows of 4 classes; and one epoch of ``train_curve`` for two
8->16->4 curves on 1,000 rows at batch 4, which draws each epoch's t
values.  The curvature estimators draw no more than one start vector,
and ``bench_hessian.py`` times them.

Each value is the median of ``REPS`` timed calls, in microseconds per call.
"""

from __future__ import annotations

import argparse
import inspect
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
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
    from dataclasses import replace

    import numpy as np

    from losslab.curves import CurveTrainConfig, train_curve
    from losslab.datasets import gen_blobs, mixup_probes, randomize_labels
    from losslab.model import ModelSpec, he_init
    from losslab.rng import Rng, raw_outputs
    from losslab.train import epoch_batches, evaluate

    out = {}
    # the evaluation after one epoch of 4 replicates: full train and test sets
    spec = ModelSpec(input_dim=8, hidden_widths=(16,), num_classes=4)
    train = gen_blobs(1000, 4, 8, 0.15, seed=1)
    test = gen_blobs(200, 4, 8, 0.15, seed=2)
    thetas = [he_init(spec, Rng(s)) for s in range(4)]
    out["train.epoch_evaluate.per_model.us"] = _median_us(
        lambda: [evaluate(spec, t, ds) for t in thetas for ds in (train, test)])
    # ``replace`` keeps whatever first field the tree's ParamVector has
    stack = replace(thetas[0], values=np.stack([t.values for t in thetas]))
    alone = [evaluate(spec, t, train).loss for t in thetas]
    if evaluate(spec, stack, train).loss.tolist() != alone:
        raise SystemExit("stacked evaluate differs from per-model evaluate")
    out["train.epoch_evaluate.stacked.us"] = _median_us(
        lambda: [evaluate(spec, stack, ds) for ds in (train, test)])

    r = Rng(3)
    out["rng.permutation.n1000.us"] = _median_us(lambda: r.permutation(1000))
    for count, n in STACKS:
        rngs = [Rng(s) for s in range(count)]
        # one stack epoch's shuffle, as the trainers draw it
        out[f"rng.stack_permutation.R{count}_n{n}.us"] = _median_us(
            lambda: epoch_batches(n, n, rngs))
    for n in RAW_SIZES:
        r = Rng(3)
        out[f"rng.raw.n{n}.us"] = _median_us(lambda: raw_outputs([r], n))
    r = Rng(3)
    out[f"rng.beta.n{MIXUP_PROBES}.us"] = _median_us(lambda: r.beta(16.0, MIXUP_PROBES))
    out[f"datasets.mixup_probes.m{MIXUP_PROBES}.us"] = _median_us(
        lambda: mixup_probes(train, m=MIXUP_PROBES, alpha=16.0, seed=5))
    out["datasets.randomize_labels.f0.4.us"] = _median_us(
        lambda: randomize_labels(train, 0.4, seed=6))
    cfg = CurveTrainConfig(epochs=1, schedule=None, batch_size=4)
    ends = [(thetas[0], thetas[1]), (thetas[2], thetas[3])]
    if "seeds" in inspect.signature(train_curve).parameters:  # not in a config-per-pair tree
        out["curves.train_curve.epoch_b4.us"] = _median_us(
            lambda: train_curve(spec, ends, train, cfg, [7, 8], 5e-4))
    return out


def side_env(src: Path) -> dict:
    """The environment of one measured side: ``src`` on the path and, as
    ``losslab.cli.main`` sets them, one BLAS thread unless the caller set a count."""
    env = dict(os.environ, PYTHONPATH=str(src))
    if not any(v in env for v in BLAS_THREAD_VARIABLES):
        env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    return env


def run_side(script: Path, src: Path) -> dict:
    env = side_env(src)
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
            "openblas_num_threads": side_env(SRC).get("OPENBLAS_NUM_THREADS")}


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
    srcs = {"parent": args.parent.resolve(), "change": SRC}
    rounds = {"parent": [], "change": []}
    for k in range(args.rounds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            rounds[side].append(run_side(script, srcs[side]))
    metrics = {}
    for name in {**rounds["parent"][0], **rounds["change"][0]}:
        entry = {}
        for side, runs in rounds.items():
            values = [run.get(name) for run in runs]
            entry[side] = None if None in values else statistics.median(values)
            entry[f"{side}_rounds"] = values
        pairs = list(zip(entry["parent_rounds"], entry["change_rounds"]))
        entry["ratio_rounds"] = [c / p if p and c is not None else None for p, c in pairs]
        entry["change_lower_rounds"] = sum(
            1 for p, c in pairs if p is not None and c is not None and c < p)
        metrics[name] = entry
    record = {"command": f"python3 benchmarks/{script.name} --parent DIR --rounds "
                         f"{args.rounds}", "reps_per_value": reps,
              "parent_first": "even rounds", "environment": environment(),
              "metrics": metrics}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, entry in metrics.items():
        print(f"{name:48s} parent {entry['parent']}  change {entry['change']}")
    return 0


def main(argv=None) -> int:
    return compare_trees(HERE, __doc__, measure, REPS, "BENCH_26.json", argv)


if __name__ == "__main__":
    sys.exit(main())
