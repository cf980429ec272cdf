"""Benchmark of ``losslab sweep`` and ``losslab phase``.

Run from the repository root:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json.
For ``--seconds`` seconds it repeats a fresh set-up process, then
``losslab sweep`` and ``losslab phase`` (each a fresh process, as a user
runs them).  Then it runs the same sweep serially in this process to
check the curvature estimators against a dense Hessian.

``--trace 1`` measures the per-layer metrics: one untraced CLI sweep,
then pairs of serial in-process sweeps, untraced and traced, for
``--seconds`` seconds, plus raw-numpy floors at the shapes the trace saw.

Every run checks the outputs: the CLI exits 0, ``phases.csv`` has one
row per cell with known labels and finite numbers, and every
``results.csv`` of the run, parallel or serial, traced or not, is the
same bytes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts grid cells run through the CLI; ``failed`` counts
those that came out NC, or all of a run's cells if the CLI failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / "perfbench_out"

MIN_WALL_SAMPLES = 3
SETUP_SAMPLES_PER_PASS = 2
MIN_SETUP_SAMPLES = 15
# The dense reference costs one hvp per parameter, so it is computed only
# for replicates of models up to this size: all of small_batch and
# large_batch_noisy, the width-16 column of curvature_heavy.
REF_MAX_PARAMS = 500
PARSE_REPS = 20
LABEL_REPS = 200
TEXT_COLUMNS = ("load_kind", "temp_kind", "phase_label")


class Checks:
    """Output checks and cell counts accumulated over one benchmark run."""

    def __init__(self, n_cells: int):
        self.n_cells = n_cells
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.results_csv: bytes | None = None

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def same_results(self, data: bytes, source: str) -> None:
        if self.results_csv is None:
            self.results_csv = data
        else:
            self.expect(data == self.results_csv, f"results.csv from {source} differs")

    def phases(self, path: Path) -> int:
        """Check phases.csv; returns the number of NC cells."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.expect(len(rows) == self.n_cells, f"phases.csv has {len(rows)} rows, "
                                               f"expected {self.n_cells}")
        from losslab.phases import PHASE_LABELS

        for row in rows:
            self.expect(row["phase_label"] in PHASE_LABELS,
                        f"unknown phase label {row['phase_label']!r}")
            for key, value in row.items():
                if key in TEXT_COLUMNS or value == "":
                    continue
                try:
                    finite = math.isfinite(float(value))
                except ValueError:
                    finite = False
                self.expect(finite, f"phases.csv {key}={value!r} is not a finite number")
        return sum(row["phase_label"] == "NC" for row in rows)


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, log: Path) -> tuple[int, float, float]:
    """Run to completion; returns (exit code, seconds, peak RSS in MB).

    The peak is ``ru_maxrss`` of the process, which includes every
    descendant it waited for (the sweep's worker pool).
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def cli_pass(cfg_path: Path, out: Path, workers: int, checks: Checks) -> dict:
    """``losslab sweep`` then ``losslab phase``, each in a fresh process."""
    sweep_dir = out / "sweep"
    shutil.rmtree(sweep_dir, ignore_errors=True)
    cli = [sys.executable, "-m", "losslab.cli"]
    log = out / "cli.log"
    code, sweep_s, rss = run_process(
        [*cli, "sweep", "--config", str(cfg_path), "--out-dir", str(sweep_dir),
         "--workers", str(workers)], log)
    total = sweep_s
    checks.attempted += checks.n_cells
    if checks.expect(code == 0, f"losslab sweep exited {code}, see {log}"):
        checks.same_results((sweep_dir / "results.csv").read_bytes(), "a CLI sweep")
        phases = sweep_dir / "phases.csv"
        code, phase_s, _ = run_process(
            [*cli, "phase", "--csv", str(sweep_dir / "results.csv"), "--config", str(cfg_path),
             "--out", str(phases)], log)
        total += phase_s
        if checks.expect(code == 0, f"losslab phase exited {code}, see {log}"):
            checks.failed += checks.phases(phases)
        else:
            checks.failed += checks.n_cells
    else:
        checks.failed += checks.n_cells
    return {"wall_s": total, "sweep_s": sweep_s, "peak_rss_mb": rss}


def setup_seconds(cfg_path: Path, out: Path, checks: Checks) -> float:
    code, seconds, _ = run_process(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg_path)], out / "setup.log")
    checks.expect(code == 0, f"set-up probe exited {code}")
    return seconds


def serial_sweep(grid, checks: Checks, tracer=None, points=None) -> float:
    """``run_sweep(grid, workers=1)`` in this process, traced if a tracer is given."""
    from losslab import sweep

    start = time.perf_counter()
    if tracer is None:
        cells, _ = sweep.run_sweep(grid, workers=1)
    else:
        with tracer.patched(points):
            cells, _ = sweep.run_sweep(grid, workers=1)
    seconds = time.perf_counter() - start
    checks.same_results(sweep.results_to_csv(cells).encode(), "a serial in-process sweep")
    return seconds


def estimator_errors(estimates: list[dict]) -> tuple[float, float]:
    """Median |estimate - exact| / |exact| of the trace and of lambda_max.

    The reference is ``model.exact_hessian`` on the estimator's own batch,
    computed here, after the sweep and outside every span.
    """
    import numpy as np

    from losslab.model import exact_hessian

    trace_err, lambda_err = [], []
    for est in estimates:
        if est["spec"].param_count > REF_MAX_PARAMS:
            continue
        dense = exact_hessian(est["spec"], est["theta"], est["batch"], est["weight_decay"])
        vals = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        exact_lambda = float(vals[np.argmax(np.abs(vals))])
        exact_trace = float(np.trace(dense))
        trace_err.append(abs(est["trace"] - exact_trace) / abs(exact_trace))
        lambda_err.append(abs(est["lambda_max"] - exact_lambda) / abs(exact_lambda))
    return statistics.median(trace_err), statistics.median(lambda_err)


def end_to_end(cfg_path: Path, grid, workers: int, seconds: float, out: Path,
               checks: Checks) -> tuple[dict, dict]:
    from tracing import CAPTURE_POINTS, Tracer

    # set-up samples are taken between the sweeps, so both sample the
    # machine over the same stretch of time
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_WALL_SAMPLES or time.perf_counter() - start < seconds:
        setup.extend(setup_seconds(cfg_path, out, checks) for _ in range(SETUP_SAMPLES_PER_PASS))
        passes.append(cli_pass(cfg_path, out, workers, checks))
        if checks.problems:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_seconds(cfg_path, out, checks))
    tracer = Tracer()
    serial_sweep(grid, checks, tracer, CAPTURE_POINTS)
    trace_err, lambda_err = estimator_errors(tracer.estimates)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cell_ok_frac": 1.0 - checks.failed / checks.attempted,
        "trace_accuracy": 1.0 - trace_err,
        "lambda_accuracy": 1.0 - lambda_err,
    }
    detail = {"wall_s_samples": [p["wall_s"] for p in passes], "setup_s_samples": setup,
              "peak_rss_mb_samples": [p["peak_rss_mb"] for p in passes],
              "trace_rel_err": trace_err, "lambda_rel_err": lambda_err}
    return metrics, detail


def _timed_median(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_layers(tracer) -> dict:
    """Per-layer metrics of one traced serial sweep."""
    summary = tracer.summary()

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def total(name):
        return summary[name]["s"] if name in summary else 0.0

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    cells = summary["sweep.run_cell"]["durations"]
    m = {}
    for name in ("model.loss_grad", "model.hvp", "model.forward"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
    for name in ("train.sgd_train", "curves.train_curve"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = summary[name]["self_s"] if name in summary else 0.0
    for name in ("train.epochs", "train.plateau_stops", "train.diverged",
                 "curvature.power_iterations", "curvature.trace_probes"):
        m[name] = tracer.counts[name]
    m["train.steps"] = tracer.calls_under("model.loss_grad", "train.sgd_train")
    m["curves.steps"] = tracer.calls_under("model.loss_grad", "curves.train_curve")
    for name in ("train.evaluate", "train.epoch_batches", "curves.curve_point",
                 "rng.permutation", "rng.rademacher"):
        m[f"{name}.us_per_call"] = us_per_call(name)
    m["rng.rademacher.calls"] = calls("rng.rademacher")
    m["rng.beta.calls"] = calls("rng.beta")
    for name in ("curves.curve_profile", "curvature.top_eigenvalue",
                 "curvature.trace_hutchinson", "cka.cka_between_models", "datasets.mixup_probes"):
        m[f"{name}.s"] = total(name)
    m["sweep.run_cell.p50_s"] = statistics.median(cells)
    m["sweep.run_cell.max_s"] = max(cells)
    return m


def floor_metrics(tracer) -> dict:
    """Call-weighted floor per kernel over the shapes the trace saw."""
    from floors import time_floor

    m = {}
    for kind in ("model.loss_grad", "model.hvp"):
        groups = [(dims, rows, n) for (name, dims, rows), n in tracer.shapes.items()
                  if name == kind]
        weighted = sum(n * time_floor(dims, rows, kind) for dims, rows, n in groups)
        m[f"{kind}.floor_us"] = weighted / sum(n for _, _, n in groups)
    return m


def per_layer(cfg: dict, cfg_path: Path, grid, workers: int, seconds: float, out: Path,
              checks: Checks) -> tuple[dict, dict]:
    from losslab import config, phases, sweep
    from tracing import Tracer

    start = time.perf_counter()
    cli = cli_pass(cfg_path, out, workers, checks)
    untraced, traced, tracers = [], [], []
    while not tracers or time.perf_counter() - start < seconds:
        untraced.append(serial_sweep(grid, checks))
        tracers.append(Tracer())
        traced.append(serial_sweep(grid, checks, tracers[-1]))
    runs = [traced_layers(tracer) for tracer in tracers]
    first = tracers[0]
    m = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    m.update(floor_metrics(first))
    for kind in ("model.loss_grad", "model.hvp"):
        m[f"{kind}.overhead_x"] = m[f"{kind}.us_per_call"] / m[f"{kind}.floor_us"]
    # speed-up of the CLI sweep over the untraced serial sweep, per worker
    m["sweep.parallel_efficiency"] = statistics.median(untraced) / (workers * cli["sweep_s"])
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    m["config.parse_grid.ms"] = 1e3 * _timed_median(
        lambda: config.parse_grid(config.load_config(cfg_path)), PARSE_REPS)
    m["datasets.build_s"] = _timed_median(
        lambda: [sweep.build_cell_dataset(grid, v) for v in grid.load_axis.values], 3)
    if not checks.problems:
        rows = sweep.read_results_csv(out / "sweep" / "results.csv")
        thresholds = config.parse_phase(cfg)
        m["phases.label_rows.us"] = 1e6 * _timed_median(
            lambda: phases.label_rows(rows, thresholds), LABEL_REPS)
    first.write(out / "spans.json")
    detail = {"traced_s": traced, "untraced_s": untraced, "cli_sweep_s": cli["sweep_s"],
              "shapes": [[name, list(dims), rows, n]
                         for (name, dims, rows), n in first.shapes.items()]}
    return m, detail


def environment(workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # the benchmark may run from a plain export of the tree
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": workers,
        "git_commit": commit,
    }


def run_workload(args, bench: dict) -> int:
    sys.path.insert(0, str(SRC))
    from losslab.config import load_config, parse_grid
    from workloads import WORKLOADS, cell_count, make_config

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    grid = parse_grid(load_config(cfg_path))
    workers = WORKLOADS[args.workload]["workers"]
    checks = Checks(cell_count(cfg))

    if args.trace:
        wanted = bench["per_layer"]
        values, detail = per_layer(cfg, cfg_path, grid, workers, args.seconds, out, checks)
    else:
        wanted = bench["end_to_end"]
        values, detail = end_to_end(cfg_path, grid, workers, args.seconds, out, checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    checks.expect(not missing, f"metrics not measured: {missing}")
    correct = not checks.problems
    result = {"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "problems": checks.problems,
         "detail": detail, "environment": environment(workers)}, indent=2) + "\n")
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:18s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, one child process each."""
    from workloads import WORKLOADS

    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                attempted += result["attempted"]
                failed += result["failed"]
            for key, metric in result["metrics"].items():
                metrics[f"{name}.{key}"] = metric
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "losslab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from the repository root; src/losslab and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
