"""Fixed per-process cost of the command line, two trees side by side.

Usage, from the repository root::

    python3 benchmarks/bench_startup.py --parent DIR [--rounds 5] [--out BENCH_20.json]

``DIR`` is the ``src`` directory of the tree to compare against (for
example ``git archive`` of the parent commit, unpacked).  The command
line is ``bench_rng.py``'s: each round measures both trees, each in a
fresh process, and the tree that runs first alternates from round to round.

Every timing is of a fresh ``python3`` process, as a user pays it, with
the environment this script runs in (bytecode caching and BLAS thread
variables included, so run both trees under the same setting):

- ``python``: an interpreter that runs ``pass``, the floor of the others;
- ``import_cli``: ``import losslab.cli``;
- ``phase``: ``losslab phase`` on a fixed 16-row ``results.csv``;
- ``sweep``: ``losslab sweep --workers 1`` on a one-cell grid (the
  bundled quickstart trimmed to 200 rows, 3 epochs and 2 replicates);
- ``sweep_<workload>``: ``losslab sweep`` on each benchmark workload at
  seed 1, the config ``perfbench/workloads.make_config`` gives, with the
  ``--workers`` count the benchmark runs it with.

Each is the median of ``REPS`` processes: ``.ms`` the wall time,
``.cpu_ms`` the user plus system CPU time of the child, ``.peak_rss_mb``
its largest resident set and ``.minflt`` its minor page faults
(``ru_maxrss`` and ``ru_minflt`` from ``wait4``).  The CPU time and the
faults include those of the pool workers a sweep waits for.  A child's
``ru_maxrss`` starts at the high-water mark of the process that spawns
it, so the measuring process loads no numpy: the peaks are the children's.
``import_cli.loads_numpy`` is 1.0 when importing the CLI loads numpy.

``apply.8-32-32-4_B1000`` times ``HessianOperator.apply`` at
8→32→32→4 on 1,000 rows, the ``curvature_heavy`` workload's largest net,
in fresh processes.  Each first runs ``losslab phase`` through
``cli.main``, so numpy loads as a ``losslab`` process loads it, and then
takes the median of ``APPLY_CALLS`` applications.  ``.alone`` runs
``REPS`` such processes one after another; ``.two_at_once`` runs
``REPS`` pairs of them side by side, as the two workers of ``sweep
--workers 2`` run.  ``.process_median_us`` is the median of the
per-process medians, ``.slowest_process_us`` the largest, and
``.slow_process_frac`` the share of processes more than twice as slow
as the median process of ``.alone``.  A process whose BLAS helper
threads fight other threads for the cores stays slow for its whole
life, so the tail shows only over many processes: run ``--rounds 3`` or
more (30 processes alone and 60 in pairs per tree).
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_rng import compare_trees

REPS = 10
APPLY_CALLS = 200
HERE = Path(__file__).resolve()
# The fixture keeps the older layout, with cka_mean and mc_mean copied into
# mu_hat and beta_hat.  A tree that needs those columns reads it, and one that
# does not ignores them, so ``--parent`` can be a tree from either side.
HEADER = ("load_kind,load_value,temp_kind,temp_value,n_replicates,n_converged,"
          "train_loss_mean,train_loss_sd,test_acc_mean,test_acc_sd,lambda_max_mean,lambda_max_sd,"
          "hessian_trace_mean,hessian_trace_sd,mc_mean,mc_sd,cka_mean,cka_sd,l2_mean,l2_sd,"
          "mu_hat,beta_hat,phase_label")


def results_csv() -> str:
    """A 4x4 width by batch-size ``results.csv`` with fixed metric values."""
    lines = [HEADER]
    for i, width in enumerate((2, 4, 8, 16)):
        for j, batch in enumerate((4, 16, 64, 256)):
            trace, mc, cka = 0.5 + 0.7 * i + 0.3 * j, 1.5 * j - 4.0 * (i == 0), 0.8 + 0.04 * i
            metrics = (0.1 + 0.01 * j, 0.01, 95.0 - i, 1.0, 2.0 * trace, 0.1, trace, 0.05,
                       mc, 0.5, cka, 0.01, 10.0 + i, 0.5, cka, mc)
            lines.append(f"width,{width},batch_size,{batch},4,4,"
                         + ",".join("%.10g" % m for m in metrics) + ",")
    return "\n".join(lines) + "\n"


def one_cell_config(src: Path) -> dict:
    cfg = json.loads((src / "losslab" / "configs" / "quickstart_sweep.json").read_text())
    cfg["data"]["n_train"] = 200
    cfg["train"]["max_epochs"] = 3
    cfg["curve"]["epochs"] = 2
    cfg["metrics"]["max_iter"] = 20
    cfg["metrics"]["probes"]["m"] = 64
    cfg["grid"]["load"]["values"] = [8]
    cfg["grid"]["temp"]["values"] = [64]
    cfg["grid"]["replicates"] = 2
    return cfg


# a losslab process as the command line sets it up, then timed applications
APPLY_CHILD = """\
import statistics, time
from losslab import cli
cli.main(["phase", "--csv", "results.csv", "--out", "{out}"])  # numpy not yet loaded
from dataclasses import replace
from losslab.model import Batch, HessianOperator, ModelSpec, he_init
from losslab.rng import Rng
r = Rng(0)
spec = ModelSpec(8, (32, 32), 4)
X = r.split("X").normals(1000 * 8).reshape(1000, 8)
y = r.split("y").choose(1000, 1000) % 4
theta = he_init(spec, r.split("theta"))
op = HessianOperator(spec, theta, Batch(X, y), 5e-4)
v = replace(theta, values=r.split("v").normals(spec.param_count))  # either tree's ParamVector
times = []
for _ in range({calls}):
    start = time.perf_counter()
    op.apply(v)
    times.append(time.perf_counter() - start)
print(statistics.median(times) * 1e6)
"""


def _apply_medians(work: Path, env: dict, at_once: int) -> list[float]:
    """Per-process median ``apply`` microseconds of ``REPS`` groups of ``at_once`` processes."""
    medians = []
    for _ in range(REPS):
        procs = [subprocess.Popen(
            [sys.executable, "-c", APPLY_CHILD.format(calls=APPLY_CALLS, out=f"apply_{i}.csv")],
            cwd=work, env=env, stdout=subprocess.PIPE, text=True) for i in range(at_once)]
        for proc in procs:
            stdout, _ = proc.communicate()
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            medians.append(float(stdout.splitlines()[-1]))
    return medians


def _run(argv, cwd, env) -> tuple[float, float, float, float]:
    """Wall seconds, CPU seconds, peak RSS (MB) and minor faults of one child process,
    which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, float(usage.ru_minflt)


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark's sweep configs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", HERE.parent.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure() -> dict:
    """Every metric of the ``losslab`` on ``sys.path``, as one flat dict."""
    import losslab

    src = Path(losslab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = ["-m", "losslab.cli"]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "results.csv").write_text(results_csv())
        (work / "sweep.json").write_text(json.dumps(one_cell_config(src)))
        commands = {
            "python": ["-c", "pass"],
            "import_cli": ["-c", "import losslab.cli"],
            "phase": [*cli, "phase", "--csv", "results.csv", "--config", "sweep.json",
                      "--out", "phases.csv"],
            "sweep": [*cli, "sweep", "--config", "sweep.json", "--out-dir", "sweep",
                      "--workers", "1"],
        }
        workloads = _perfbench_workloads()
        for name, workload in workloads.WORKLOADS.items():
            (work / f"{name}.json").write_text(json.dumps(workloads.make_config(name, 1)))
            commands[f"sweep_{name}"] = [*cli, "sweep", "--config", f"{name}.json",
                                         "--out-dir", name, "--workers", str(workload["workers"])]
        for name, argv in commands.items():
            runs = [_run(argv, work, env) for _ in range(REPS)]
            out[f"startup.{name}.ms"] = statistics.median(r[0] for r in runs) * 1e3
            out[f"startup.{name}.cpu_ms"] = statistics.median(r[1] for r in runs) * 1e3
            out[f"startup.{name}.peak_rss_mb"] = statistics.median(r[2] for r in runs)
            out[f"startup.{name}.minflt"] = statistics.median(r[3] for r in runs)
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, losslab.cli; print('numpy' in sys.modules)"],
            cwd=work, env=env, check=True, capture_output=True, text=True)
        out["startup.import_cli.loads_numpy"] = float(probe.stdout.strip() == "True")
        alone = _apply_medians(work, env, 1)
        typical = statistics.median(alone)
        for label, medians in (("alone", alone), ("two_at_once", _apply_medians(work, env, 2))):
            key = f"apply.8-32-32-4_B1000.{label}"
            out[f"{key}.process_median_us"] = statistics.median(medians)
            out[f"{key}.slowest_process_us"] = max(medians)
            out[f"{key}.slow_process_frac"] = sum(t > 2 * typical for t in medians) / len(medians)
    return out


def main(argv=None) -> int:
    return compare_trees(HERE, __doc__, measure, REPS, "BENCH_20.json", argv)


if __name__ == "__main__":
    sys.exit(main())
