"""Golden-output and exit-code tests of the ``losslab`` command line.

The golden commands run through ``cli.main`` in one fresh interpreter,
inside a scratch directory with relative paths, on the bundled
quickstart config cut down to a few seconds of work.  That interpreter
has not loaded numpy and has no BLAS thread variable set, so ``main``
sets one BLAS thread, as it does when run from a shell.  One pinned
digest covers the exit codes, the stdout and every byte each command
writes, so a change to any command's outputs or manifests (other than
the wall-clock time and the command line) fails here.  The error-path
tests run their commands in-process in the same directory.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import losslab
from losslab import cli

CONFIGS = Path(losslab.__file__).parent / "configs"

GOLDEN_SHA256 = "74854f8c469f94cc2942b61c75ad932220c749082d60222dd03c474ea0d0b2e8"

# Manifest keys that differ between otherwise identical runs.
VOLATILE = ("wall_clock_s", "command_line")


def small_config() -> dict:
    """The quickstart sweep config trimmed to a 2x2 grid that runs in seconds."""
    cfg = json.loads((CONFIGS / "quickstart_sweep.json").read_text())
    cfg["train"]["max_epochs"] = 3
    cfg["curve"]["epochs"] = 2
    cfg["metrics"]["max_iter"] = 20
    cfg["metrics"]["probes"]["m"] = 64
    cfg["grid"]["load"]["values"] = [2, 16]
    cfg["grid"]["temp"]["values"] = [64, 256]
    cfg["grid"]["replicates"] = 2
    return cfg


def write_config(path: str, cfg: dict) -> str:
    Path(path).write_text(json.dumps(cfg))
    return path


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(code: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this ``losslab``, in ``env`` (default ours)."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(Path(losslab.__file__).parent.parent))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


def without_blas_variables() -> dict:
    """This process's environment without the BLAS thread variables ``cli.main`` sets."""
    return {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}


def file_digest_lines(root: Path) -> list[str]:
    """One line per file under ``root``: its path and the sha256 of its stable content."""
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("manifest.json"):
            manifest = json.loads(data)
            for key in VOLATILE:
                manifest.pop(key)
            data = json.dumps(manifest, sort_keys=True).encode()
        lines.append(f"{path.relative_to(root).as_posix()} {hashlib.sha256(data).hexdigest()}")
    return lines


COMMANDS = [
    ["train", "--config", "train_a.json", "--out-dir", "run_a"],
    ["train", "--config", "train_b.json", "--out-dir", "run_b"],
    ["hessian", "--config", "sweep.json", "--checkpoint", "run_a/model.ckpt",
     "--out", "hessian.json"],
    # Lanczos stops within rtol of the dense eigensolver: exit 0, with the
    # dense values in the record
    ["hessian", "--config", "sweep.json", "--checkpoint", "run_a/model.ckpt",
     "--out", "hessian_exact.json", "--exact"],
    ["cka", "--config", "sweep.json", "--checkpoint-a", "run_a/model.ckpt",
     "--checkpoint-b", "run_b/model.ckpt", "--out", "cka.json"],
    ["modeconn", "--config", "sweep.json", "--checkpoint-a", "run_a/model.ckpt",
     "--checkpoint-b", "run_b/model.ckpt", "--out", "modeconn.json"],
    ["l2", "--checkpoint-a", "run_a/model.ckpt", "--checkpoint-b", "run_b/model.ckpt",
     "--out", "l2.json"],
    ["sweep", "--config", "sweep.json", "--out-dir", "sweep", "--workers", "1"],
    ["phase", "--csv", "sweep/results.csv", "--config", "sweep.json", "--out", "phases.csv"],
    ["plot", "--csv", "phases.csv", "--metric", "phase_label", "--out", "phases.svg"],
    ["plot", "--csv", "phases.csv", "--metric", "mc_mean", "--out", "mc.svg"],
    ["plot", "--csv", "sweep/results.csv", "--metric", "hessian_trace_mean",
     "--orientation", "flip", "--out", "trace.svg"],
    ["profile-plot", "--profile", "modeconn.profile.json", "--out", "profile.svg"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The directory of every command's outputs, the run log and its digest text."""
    root = tmp_path_factory.mktemp("cli")
    cfg = small_config()
    write_config(str(root / "sweep.json"), cfg)
    train = {k: cfg[k] for k in ("schema", "model", "data", "train")}
    write_config(str(root / "train_a.json"), train)
    train["train"] = dict(train["train"], seed=1)
    write_config(str(root / "train_b.json"), train)
    proc = run_python(
        "import contextlib, io, json\n"
        "from losslab import cli\n"
        "runs = []\n"
        f"for argv in {COMMANDS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([cli.main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n", cwd=root, env=without_blas_variables())
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    log = [f"{' '.join(argv)} -> {code}\n{out}" for argv, (code, out) in zip(COMMANDS, runs)]
    # digested before any other test adds files to the directory
    text = "".join(log) + "\n".join(file_digest_lines(root)) + "\n"
    return root, log, text


def test_exit_codes(workdir):
    _, log, _ = workdir
    codes = [int(entry.split("\n")[0].rsplit(" ", 1)[1]) for entry in log]
    assert codes == [0] * len(COMMANDS), log


def test_every_command_writes_a_manifest(workdir):
    root, _, _ = workdir
    for name in ("run_a/train.manifest.json", "sweep/sweep.manifest.json",
                 "hessian.json.manifest.json", "hessian_exact.json.manifest.json",
                 "cka.json.manifest.json",
                 "modeconn.json.manifest.json", "l2.json.manifest.json",
                 "phases.csv.manifest.json", "phases.svg.manifest.json",
                 "mc.svg.manifest.json", "profile.svg.manifest.json"):
        manifest = json.loads((root / name).read_text())
        assert manifest["outputs"] and manifest["wall_clock_s"] >= 0.0


def test_golden_digest(workdir):
    _, _, text = workdir
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256, text


def in_workdir(workdir, monkeypatch, argv):
    root = workdir[0]
    monkeypatch.chdir(root)
    return run(argv)


def without_lr(cfg):
    del cfg["train"]["lr"]


def negative_weight_decay(cfg):
    cfg["train"]["weight_decay"] = -1.0


def misspelled_plateau_eps(cfg):
    cfg["train"]["plateu_eps"] = cfg["train"].pop("plateau_eps")


def text_axis_values(cfg):
    cfg["grid"]["load"]["values"] = ["a", "b"]


def fractional_width(cfg):
    cfg["grid"]["load"] = {"kind": "width", "values": [2.5, 16]}


def linear_scale_lr(cfg):
    cfg["train"]["linear_scale_lr"] = True


def relu_activation(cfg):
    cfg["model"]["activation"] = "relu"


@pytest.mark.parametrize("command,edit,message", [
    ("train", without_lr, "train.lr: missing required field"),
    ("train", negative_weight_decay, "train.weight_decay: must be >= 0"),
    ("sweep", misspelled_plateau_eps, "train.plateu_eps: unknown field"),
    ("sweep", text_axis_values, "grid.load: axis values must be numbers, got 'a'"),
    ("sweep", fractional_width, "grid.load: width axis values must be integers, got 2.5"),
    ("train", linear_scale_lr, "train.linear_scale_lr: unknown field"),
    ("train", relu_activation, "model.activation: unknown field"),
])
def test_config_error_exits_2(workdir, monkeypatch, command, edit, message):
    cfg = small_config()
    edit(cfg)
    write_config(str(workdir[0] / "bad.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch,
                              [command, "--config", "bad.json", "--out-dir", "bad"])
    assert code == 2 and message in err


def test_plot_unknown_metric_exits_2(workdir, monkeypatch):
    # the axis kinds are CSV columns too, but text: no heatmap of them; mu_hat
    # and beta_hat, once copies of cka_mean and mc_mean, are not columns
    for metric in ("nope", "load_kind", "temp_kind", "mu_hat", "beta_hat"):
        code, _, err = in_workdir(workdir, monkeypatch, ["plot", "--csv", "phases.csv",
                                                         "--metric", metric, "--out", "nope.svg"])
        assert code == 2 and metric in err


def test_diverging_training_exits_3(workdir, monkeypatch):
    cfg = small_config()
    cfg["train"]["lr"] = 1e200
    write_config(str(workdir[0] / "hot_train.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch,
                              ["train", "--config", "hot_train.json", "--out-dir", "hot_train"])
    assert code == 3 and "epoch 0" in err


def test_diverging_curve_exits_3(workdir, monkeypatch):
    cfg = small_config()
    cfg["curve"]["lr"] = 1e200
    root = workdir[0]
    write_config(str(root / "hot_curve.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch, [
        "modeconn", "--config", "hot_curve.json", "--checkpoint-a", "run_a/model.ckpt",
        "--checkpoint-b", "run_b/model.ckpt", "--out", "hot.json"])
    assert code == 3 and "epoch 0" in err


@pytest.mark.parametrize("command,output,path,seed,congruent", [
    ("sweep", "results.csv", "grid.base_seed", -1, 2**64 - 1),
    ("sweep", "results.csv", "data.seed", 2**64, 0),
    ("train", "model.ckpt", "data.seed", -5, 2**64 - 5),
])
def test_a_seed_is_taken_mod_2_64(workdir, monkeypatch, command, output, path, seed, congruent):
    # on one cell; a seed out of [0, 2**64) gives the bytes of the seed it is congruent to
    cfg = small_config()
    cfg["grid"]["load"]["values"], cfg["grid"]["temp"]["values"] = [2], [64]
    section, key = path.split(".")
    written = []
    for name, value in (("out", seed), ("in", congruent)):
        cfg[section][key] = value
        write_config(str(workdir[0] / f"seed_{name}.json"), cfg)
        code, _, err = in_workdir(workdir, monkeypatch,
                                  [command, "--config", f"seed_{name}.json", "--out-dir", name])
        assert code == 0, err
        written.append((workdir[0] / name / output).read_bytes())
    assert written[0] == written[1]


def test_a_sweep_at_a_batch_size_of_2_63_writes_its_row(workdir, monkeypatch):
    # TrainConfig accepts the value, and its seed key part is taken mod 2**64
    cfg = small_config()
    cfg["grid"]["load"]["values"], cfg["grid"]["temp"]["values"] = [2], [2**63]
    write_config(str(workdir[0] / "huge_batch.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch, [
        "sweep", "--config", "huge_batch.json", "--out-dir", "huge_batch", "--workers", "1"])
    assert code == 0, err
    rows = (workdir[0] / "huge_batch" / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and ",9.223372037e+18," in rows[1]


def test_missing_checkpoint_exits_4(workdir, monkeypatch):
    code, _, err = in_workdir(workdir, monkeypatch, [
        "hessian", "--config", "sweep.json", "--checkpoint", "absent.ckpt", "--out", "x.json"])
    assert code == 4 and "absent.ckpt" in err


def test_truncated_checkpoint_exits_4(workdir, monkeypatch):
    root = workdir[0]
    data = (root / "run_a" / "model.ckpt").read_bytes()
    (root / "truncated.ckpt").write_bytes(data[: len(data) // 2])
    code, _, err = in_workdir(workdir, monkeypatch, [
        "l2", "--checkpoint-a", "truncated.ckpt", "--checkpoint-b", "run_b/model.ckpt",
        "--out", "x.json"])
    assert code == 4 and "truncated" in err


def write_bad_checkpoints(root: Path) -> None:
    """``run_a/model.ckpt`` cut in half, with a NaN first value, and with two values too few."""
    text = (root / "run_a" / "model.ckpt").read_text()
    (root / "truncated.ckpt").write_text(text[: len(text) // 2])
    ckpt = json.loads(text)
    ckpt["values"][0] = float("nan")  # json writes it as NaN
    (root / "nan.ckpt").write_text(json.dumps(ckpt))
    ckpt["values"][0:2] = []
    (root / "short.ckpt").write_text(json.dumps(ckpt))


@pytest.mark.parametrize("bad,reason", [
    ("truncated.ckpt", "Expecting"), ("nan.ckpt", "non-finite value NaN"),
    ("short.ckpt", "value shape (210,) does not match"),
])
@pytest.mark.parametrize("argv", [
    ["hessian", "--config", "sweep.json", "--checkpoint", "BAD"],
    ["cka", "--config", "sweep.json", "--checkpoint-a", "run_a/model.ckpt",
     "--checkpoint-b", "BAD"],
    ["modeconn", "--config", "sweep.json", "--checkpoint-a", "BAD",
     "--checkpoint-b", "run_b/model.ckpt"],
    ["l2", "--checkpoint-a", "run_a/model.ckpt", "--checkpoint-b", "BAD"],
], ids=lambda argv: argv[0])
def test_a_measuring_command_on_a_bad_checkpoint_exits_4(workdir, monkeypatch, argv, bad, reason):
    write_bad_checkpoints(workdir[0])
    argv = [bad if arg == "BAD" else arg for arg in argv]
    code, _, err = in_workdir(workdir, monkeypatch, [*argv, "--out", "bad.json"])
    assert code == 4 and f"malformed checkpoint {bad}: {reason}" in err, err


MEASURE = {
    "hessian": ["--checkpoint", "run_a/model.ckpt"],
    "modeconn": ["--checkpoint-a", "run_a/model.ckpt", "--checkpoint-b", "run_b/model.ckpt"],
}


@pytest.mark.parametrize("command", sorted(MEASURE))
@pytest.mark.parametrize("value", ["abc", None, -1.0])
def test_bad_weight_decay_exits_2(workdir, monkeypatch, command, value):
    cfg = small_config()
    cfg["train"]["weight_decay"] = value
    write_config(str(workdir[0] / "bad_wd.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch, [
        command, "--config", "bad_wd.json", *MEASURE[command], "--out", "bad_wd.json.out"])
    assert code == 2 and "train.weight_decay" in err


def test_weight_decay_defaults_to_zero_without_train_section(workdir, monkeypatch):
    cfg = small_config()
    del cfg["train"]
    write_config(str(workdir[0] / "no_train.json"), cfg)
    code, out, _ = in_workdir(workdir, monkeypatch, [
        "hessian", "--config", "no_train.json", *MEASURE["hessian"], "--out", "no_train.out"])
    assert code == 0 and json.loads(out)["weight_decay"] == 0.0


def run_on_misfit_data(workdir, monkeypatch, command, field):
    """``command`` on the quickstart data with ``data.<field>`` 6, as (exit code, stderr)."""
    cfg = small_config()
    cfg["data"][field] = 6
    write_config(str(workdir[0] / "misfit.json"), cfg)
    code, _, err = in_workdir(workdir, monkeypatch, [
        command, "--config", "misfit.json", *MEASURE[command], "--out", "misfit.out"])
    return code, err


@pytest.mark.parametrize("field,message", [
    ("dim", "batch input dimension 6 != input_dim 8"),
    ("num_classes", "outside the model's 4 classes"),
])
def test_hessian_on_data_the_checkpoint_does_not_fit_exits_2(workdir, monkeypatch, field, message):
    code, err = run_on_misfit_data(workdir, monkeypatch, "hessian", field)
    assert code == 2 and message in err, err


@pytest.mark.parametrize("field,message", [
    ("dim", "curve data dimension 6 != input_dim 8"),
    ("num_classes", "curve data classes 6 != num_classes 4"),
])
def test_modeconn_on_data_the_checkpoints_do_not_fit_exits_2(workdir, monkeypatch, field, message):
    code, err = run_on_misfit_data(workdir, monkeypatch, "modeconn", field)
    assert code == 2 and message in err, err


def write_results_csv_with(root: Path, name: str, column: str, value: str,
                           line: int = 2) -> None:
    """``sweep/results.csv`` with ``value`` as its ``column`` field on line ``line`` (header 0)."""
    lines = (root / "sweep" / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    parts = lines[line].split(",")
    parts[header.index(column)] = value
    lines[line] = ",".join(parts)
    (root / name).write_text("\n".join(lines) + "\n")


def write_narrow_results_csv(root: Path) -> None:
    """``sweep/results.csv`` without its ``load_value`` column."""
    rows = [line.split(",") for line in (root / "sweep" / "results.csv").read_text().splitlines()]
    drop = rows[0].index("load_value")
    (root / "narrow.csv").write_text(
        "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows))


def write_profile_with(root: Path, name: str, value, key: str = "err01") -> None:
    """The modeconn profile with ``value`` as the second entry of its ``key`` list."""
    profile = json.loads((root / "modeconn.profile.json").read_text())
    profile[key][1] = value
    (root / name).write_text(json.dumps(profile))


@pytest.mark.parametrize("argv,message", [
    (["phase", "--csv", "empty.csv", "--out", "x.csv"], "empty.csv: empty file"),
    (["plot", "--csv", "empty.csv", "--metric", "mc_mean", "--out", "x.svg"],
     "empty.csv: empty file"),
    (["phase", "--csv", "broken.csv", "--out", "x.csv"], "broken.csv:3: n_converged"),
    (["profile-plot", "--profile", "short.json", "--out", "x.svg"], "short.json"),
    (["phase", "--csv", "narrow.csv", "--out", "x.csv"],
     "narrow.csv:1: header lacks the column(s) load_value"),
    (["plot", "--csv", "narrow.csv", "--metric", "mc_mean", "--out", "x.svg"],
     "narrow.csv:1: header lacks the column(s) load_value"),
    (["profile-plot", "--profile", "text.json", "--out", "x.svg"], "text.json"),
    (["profile-plot", "--profile", "null.json", "--out", "x.svg"], "null.json"),
    (["phase", "--csv", "blank.csv", "--out", "x.csv"], "blank.csv:3: load_value"),
    (["plot", "--csv", "blank.csv", "--metric", "mc_mean", "--out", "x.svg"],
     "blank.csv:3: load_value"),
    (["l2", "--checkpoint-a", "trailing.ckpt", "--checkpoint-b", "run_b/model.ckpt",
      "--out", "x.json"], "trailing.ckpt: Extra data"),
    (["profile-plot", "--profile", "nan.json", "--out", "x.svg"], "nan.json"),
    (["profile-plot", "--profile", "far.json", "--out", "x.svg"], "far.json"),
    (["l2", "--checkpoint-a", "deep.json", "--checkpoint-b", "run_b/model.ckpt",
      "--out", "x.json"], "malformed checkpoint deep.json: maximum recursion depth"),
    (["profile-plot", "--profile", "deep.json", "--out", "x.svg"],
     "deep.json: not a curve profile: RecursionError"),
])
def test_malformed_input_file_exits_4(workdir, monkeypatch, argv, message):
    root = workdir[0]
    (root / "empty.csv").write_text("")
    write_results_csv_with(root, "broken.csv", "n_converged", "two")
    write_results_csv_with(root, "blank.csv", "load_value", "")
    write_narrow_results_csv(root)
    (root / "short.json").write_text('{"t": [0.0]}')
    write_profile_with(root, "text.json", "a")
    write_profile_with(root, "null.json", None)
    write_profile_with(root, "nan.json", float("nan"))  # json writes it as NaN
    write_profile_with(root, "far.json", 7.0, key="t")
    (root / "trailing.ckpt").write_bytes((root / "run_a" / "model.ckpt").read_bytes() + b"\x00")
    # nested deeper than the JSON parser can recurse
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = in_workdir(workdir, monkeypatch, argv)
    assert code == 4 and message in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("line", range(1, 5))
@pytest.mark.parametrize("metric", ["hessian_trace_mean", "mc_mean"])
def test_plot_draws_a_non_finite_value_as_a_blank_one(workdir, monkeypatch, metric, line,
                                                      value):
    # a sweep can write nan or inf; it is hatched and kept out of the scale
    root = workdir[0]
    write_results_csv_with(root, "odd.csv", metric, value, line)
    write_results_csv_with(root, "gap.csv", metric, "", line)
    for name in ("odd", "gap"):
        argv = ["plot", "--csv", f"{name}.csv", "--metric", metric, "--out", f"{name}.svg"]
        code, _, err = in_workdir(workdir, monkeypatch, argv)
        assert code == 0, err
    assert (root / "odd.svg").read_bytes() == (root / "gap.svg").read_bytes()


def test_plot_of_a_repeated_cell_exits_2(workdir, monkeypatch):
    # the second row of a cell would replace the first in the heatmap and its scale
    root = workdir[0]
    lines = (root / "sweep" / "results.csv").read_text().splitlines()
    (root / "twice.csv").write_text("\n".join(lines + [lines[2]]) + "\n")
    code, _, err = in_workdir(workdir, monkeypatch, ["plot", "--csv", "twice.csv",
                                                     "--metric", "mc_mean", "--out", "x.svg"])
    assert code == 2 and "more than one row for the cell width 2, batch_size 256" in err


def test_eps_mc_is_set_only_in_the_config(workdir, monkeypatch):
    with pytest.raises(SystemExit) as info:
        in_workdir(workdir, monkeypatch, ["phase", "--csv", "sweep/results.csv",
                                          "--eps-mc", "1.0", "--out", "x.csv"])
    assert info.value.code == 2


def test_importing_the_cli_loads_no_numpy():
    proc = run_python("import sys\nimport losslab.cli\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_phase_plot_and_profile_plot_run_without_numpy(workdir):
    root = workdir[0]
    proc = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "from losslab import cli\n"
        "codes = [cli.main(['phase', '--csv', 'sweep/results.csv', '--config', 'sweep.json',\n"
        "                   '--out', 'bare_phases.csv']),\n"
        "         cli.main(['plot', '--csv', 'bare_phases.csv', '--metric', 'phase_label',\n"
        "                   '--out', 'bare_phases.svg']),\n"
        "         cli.main(['profile-plot', '--profile', 'modeconn.profile.json',\n"
        "                   '--out', 'bare_profile.svg'])]\n"
        "print(codes)\n", cwd=root)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "[0, 0, 0]", proc.stderr
    assert (root / "bare_phases.csv").read_bytes() == (root / "phases.csv").read_bytes()
    assert (root / "bare_phases.svg").read_bytes() == (root / "phases.svg").read_bytes()
    assert (root / "bare_profile.svg").read_bytes() == (root / "profile.svg").read_bytes()


# as this process found them, before any test ran a command in-process
BLAS_ENV = {v: os.environ.get(v) for v in cli.BLAS_THREAD_VARIABLES}


@pytest.mark.parametrize("prelude, user, expected", [
    ("", {}, ["1", "1", "1"]),
    ("", {"OMP_NUM_THREADS": "3"}, [None, "3", None]),  # the user's choice wins
    ("import numpy\n", {}, [None, None, None]),  # too late to apply
])
def test_main_runs_blas_on_one_thread_unless_told_otherwise(workdir, prelude, user, expected):
    env = without_blas_variables() | user
    proc = run_python(
        f"{prelude}import os\n"
        "from losslab import cli\n"
        "code = cli.main(['l2', '--checkpoint-a', 'run_a/model.ckpt',\n"
        "                 '--checkpoint-b', 'run_b/model.ckpt', '--out', 'blas_l2.json'])\n"
        "print(code, [os.environ.get(v) for v in cli.BLAS_THREAD_VARIABLES])\n",
        cwd=workdir[0], env=env)
    assert proc.stdout.splitlines()[-1] == f"0 {expected}", proc.stderr


def test_in_process_commands_leave_the_blas_variables_as_they_were(workdir):
    assert {v: os.environ.get(v) for v in cli.BLAS_THREAD_VARIABLES} == BLAS_ENV
