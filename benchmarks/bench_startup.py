"""Fixed per-process cost of the command line, two trees side by side.

Usage, from the repository root::

    python3 benchmarks/bench_startup.py --parent DIR [--rounds 5] [--out BENCH_16.json]

``DIR`` is the ``src`` directory of the tree to compare against (for
example ``git archive`` of the parent commit, unpacked).  The command
line is ``bench_rng.py``'s: each round measures the parent tree and then
this tree, each in a fresh process.

Every timing is of a fresh ``python3`` process, as a user pays it, with
the environment this script runs in (bytecode caching included, so run
both trees under the same setting):

- ``python``: an interpreter that runs ``pass``, the floor of the others;
- ``import_cli``: ``import losslab.cli``;
- ``phase``: ``losslab phase`` on a fixed 16-row ``results.csv``;
- ``sweep``: ``losslab sweep --workers 1`` on a one-cell grid (the
  bundled quickstart trimmed to 200 rows, 3 epochs and 2 replicates).

Each is the median of ``REPS`` processes: ``.ms`` the wall time and
``.cpu_ms`` the user plus system CPU time of the child.
``import_cli.loads_numpy`` is 1.0 when importing the CLI loads numpy.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_rng import compare_trees

REPS = 10
HERE = Path(__file__).resolve()
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


def _timed(argv, cwd, env) -> tuple[float, float]:
    """Wall and CPU seconds of one child process, which must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


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
        for name, argv in commands.items():
            runs = [_timed(argv, work, env) for _ in range(REPS)]
            out[f"startup.{name}.ms"] = statistics.median(w for w, _ in runs) * 1e3
            out[f"startup.{name}.cpu_ms"] = statistics.median(c for _, c in runs) * 1e3
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, losslab.cli; print('numpy' in sys.modules)"],
            cwd=work, env=env, check=True, capture_output=True, text=True)
        out["startup.import_cli.loads_numpy"] = float(probe.stdout.strip() == "True")
    return out


def main(argv=None) -> int:
    return compare_trees(HERE, __doc__, measure, REPS, "BENCH_16.json", argv)


if __name__ == "__main__":
    sys.exit(main())
