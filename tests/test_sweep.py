"""Golden-output guards for the grid sweep and the phase command.

The pinned digests fix every byte of ``results.csv`` and ``phases.csv``
for one tiny grid, so a change to the layout, config or CSV code that
alters any number or its formatting fails here.
"""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import losslab
from losslab import cli, sweep
from losslab.config import load_config, parse_grid
from losslab.curvature import CurvatureConfig
from losslab.curves import CurveTrainConfig, mode_connectivity
from losslab.datasets import load_csv
from losslab.errors import DegenerateOutputError, DimensionError, DivergenceError, ParameterError
from losslab.model import ModelSpec, ParamVector
from losslab.phases import PhaseThresholds, label_rows
from losslab.rng import derive_seed
from losslab.sweep import (
    Axis,
    DataRecipe,
    GridSpec,
    ProbeConfig,
    datasets_from_recipe,
    read_results_csv,
    results_to_csv,
    rows_to_csv,
    run_cell,
    run_sweep,
)
from losslab.train import TrainConfig

RESULTS_SHA256 = "522868df414b7cf67774611c8501d34f2effb36b6b9e03678ab4abc598a97655"
PHASES_SHA256 = "86566aad6aae1e5f86039aa43e949bb545f3e78c771ca883f80a6b50bb56b4e0"
# the labels of that phases.csv, so a change of format shows apart from a moved label
PHASE_LABELS = ["III", "III", "I", "II"]
# RESULTS_SHA256 of the layout that also wrote cka_mean as mu_hat and mc_mean as beta_hat
COPIED_COLUMNS_RESULTS_SHA256 = "81e045c4b4ad442a58d2520bbf40f13150d1daf8ef7396fb48c5cb8e777d9120"


def tiny_grid() -> GridSpec:
    """A 2x2 width x batch grid small enough to run in well under a second."""
    return GridSpec(
        load_axis=Axis("width", (2, 8)),
        temp_axis=Axis("batch_size", (32, 128)),
        base_model=ModelSpec(input_dim=8, hidden_widths=(16,), num_classes=4),
        base_train=TrainConfig(batch_size=128, lr=0.05, weight_decay=5e-4, max_epochs=3, seed=0),
        recipe=DataRecipe(kind="blobs", n_train=200, n_test=100, seed=1),
        replicates=2,
        curve=CurveTrainConfig(epochs=2),
        curvature=CurvatureConfig(metric_batch=100),
        probes=ProbeConfig(m=64),
        base_seed=7,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def serial_csv() -> str:
    cells, manifest = run_sweep(tiny_grid(), workers=1)
    assert len(cells) == 4
    assert manifest["grid"]["replicates"] == 2
    return results_to_csv(cells)


def test_results_csv_pinned(serial_csv):
    assert sha256(serial_csv.encode()) == RESULTS_SHA256


def test_parallel_sweep_matches_serial(serial_csv):
    cells, _ = run_sweep(tiny_grid(), workers=2)
    assert results_to_csv(cells) == serial_csv


def test_a_one_worker_sweep_loads_no_process_pool_and_no_openssl():
    loads = ("_hashlib", "concurrent.futures.process", "multiprocessing", "numpy.random")
    code = ("import pickle\n"
            "import sys\n"
            "import losslab.sweep\n"
            f"losslab.sweep.run_sweep(pickle.loads({pickle.dumps(tiny_grid())!r}), workers=1)\n"
            f"print([m for m in {loads!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(losslab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


# numpy.linalg's LAPACK entry points; the first call of one pages LAPACK's code in
LAPACK = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "inv", "lstsq", "qr",
          "cholesky", "det", "slogdet")


def test_a_sweep_calls_no_lapack(serial_csv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called LAPACK")

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    cells, _ = run_sweep(tiny_grid(), workers=1)
    assert results_to_csv(cells) == serial_csv


def test_extending_an_axis_leaves_old_cells_unchanged(serial_csv):
    grid = tiny_grid()
    extended = replace(grid, temp_axis=Axis("batch_size", (*grid.temp_axis.values, 256)))
    cells, _ = run_sweep(extended, workers=1)
    assert len(cells) == 6
    old_cells = [cell for cell in cells if cell.temp_value != 256]
    assert results_to_csv(old_cells) == serial_csv


def noise_grid(temps=(32, 128)) -> GridSpec:
    """``tiny_grid`` with a label-noise load axis: three datasets, not one."""
    return replace(tiny_grid(), load_axis=Axis("noise_frac", (0.0, 0.2, 0.4)),
                   temp_axis=Axis("batch_size", temps))


def probe_sets(grid, monkeypatch) -> list[tuple[int, bytes]]:
    """Runs ``grid`` serially; per cell in grid order, the seed and rows of its mixup probes."""
    built = []
    original = sweep.mixup_probes

    def record(ds, m, alpha, seed):
        probes = original(ds, m, alpha, seed)
        built.append((seed, probes.X.tobytes()))
        return probes

    monkeypatch.setattr(sweep, "mixup_probes", record)
    run_sweep(grid, workers=1)
    return built


def test_every_cell_on_one_dataset_gets_the_same_probes(monkeypatch):
    built = probe_sets(tiny_grid(), monkeypatch)
    assert len(built) == 4 and len(set(built)) == 1


def test_each_noise_frac_column_gets_its_own_probes(monkeypatch):
    built = probe_sets(noise_grid(), monkeypatch)
    # grid order: the two temperatures of column i are cells 2i and 2i + 1
    assert len(built) == 6
    assert [built[2 * i] == built[2 * i + 1] for i in range(3)] == [True] * 3
    assert len({seed for seed, _ in built}) == len({rows for _, rows in built}) == 3


def test_extending_the_temperature_axis_of_a_noise_grid_leaves_old_rows_unchanged():
    old = results_to_csv(run_sweep(noise_grid(), workers=1)[0])
    cells, _ = run_sweep(noise_grid(temps=(32, 128, 256)), workers=1)
    assert results_to_csv([cell for cell in cells if cell.temp_value != 256]) == old


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces ``ProcessPoolExecutor`` with a stub that runs the cells in this process;
    returns the list of ``max_workers`` values the stub was built with."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_a_pool_gets_no_more_workers_than_cells(serial_csv, in_process_pool):
    cells, manifest = run_sweep(tiny_grid(), workers=64)
    assert in_process_pool == [4] and manifest["workers"] == 4
    assert results_to_csv(cells) == serial_csv


def test_a_one_cell_grid_runs_serially_at_any_worker_count(serial_csv, in_process_pool):
    grid = tiny_grid()
    one_cell = replace(grid, load_axis=Axis("width", grid.load_axis.values[:1]),
                       temp_axis=Axis("batch_size", grid.temp_axis.values[:1]))
    cells, manifest = run_sweep(one_cell, workers=64)
    assert in_process_pool == [] and manifest["workers"] == 1
    assert results_to_csv(cells) == "".join(serial_csv.splitlines(keepends=True)[:2])


def test_read_then_rows_to_csv_round_trips(serial_csv, tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(serial_csv)
    assert rows_to_csv(read_results_csv(path)).encode() == serial_csv.encode()


def phase(csv: str, directory: Path) -> Path:
    """``losslab phase`` on ``csv``, in ``directory``; the path of the phases.csv it wrote."""
    directory.mkdir(exist_ok=True)
    csv_path, out = directory / "results.csv", directory / "phases.csv"
    csv_path.write_text(csv)
    assert cli.main(["phase", "--csv", str(csv_path), "--out", str(out)]) == 0
    return out


def phase_labels(csv: str, directory: Path) -> list[str]:
    return [row["phase_label"] for row in read_results_csv(phase(csv, directory))]


def with_copied_columns(csv: str) -> str:
    """``csv`` with ``cka_mean`` copied into ``mu_hat`` and ``mc_mean`` into ``beta_hat``,
    before ``phase_label``: the layout results.csv had when it wrote both."""
    header, *lines = csv.splitlines()
    names = header.split(",")
    mc, cka = names.index("mc_mean"), names.index("cka_mean")
    out = []
    for n, line in enumerate([header, *lines]):
        *fields, label = line.split(",")
        copies = ["mu_hat", "beta_hat"] if n == 0 else [fields[cka], fields[mc]]
        out.append(",".join([*fields, *copies, label]))
    return "\n".join(out) + "\n"


def test_phase_command_output_pinned(serial_csv, tmp_path, capsys):
    assert sha256(phase(serial_csv, tmp_path).read_bytes()) == PHASES_SHA256


def test_phase_labels_pinned(serial_csv, tmp_path):
    assert phase_labels(serial_csv, tmp_path) == PHASE_LABELS


def test_a_results_csv_with_the_copied_columns_phases_alike(serial_csv, tmp_path):
    # read_results_csv ignores columns it does not know, so a results.csv
    # that still holds mu_hat and beta_hat gives the same phases.csv
    copied = with_copied_columns(serial_csv)
    assert sha256(copied.encode()) == COPIED_COLUMNS_RESULTS_SHA256
    out = phase(copied, tmp_path / "copied")
    assert out.read_bytes() == phase(serial_csv, tmp_path / "plain").read_bytes()


# The benchmark's sweep workloads at seed 1: the quickstart config with
# each workload's changes.  The quickstart is copied here, not read from
# the package, so these digests stay fixed when the bundled example
# changes.
QUICKSTART = {
    "schema": 1,
    "model": {"input_dim": 8, "hidden_widths": [16], "num_classes": 4},
    "data": {"kind": "blobs", "n_train": 1000, "n_test": 200, "num_classes": 4, "dim": 8,
             "spread": 0.15, "seed": 1},
    "train": {"batch_size": 128, "lr": 0.05, "weight_decay": 5e-4, "max_epochs": 60,
              "plateau_eps": 1e-4, "plateau_epochs": 5, "seed": 0},
    "curve": {"epochs": 50, "lr": 0.01, "batch_size": 128, "k": 2},
    "metrics": {"max_iter": 100, "rtol": 1e-3, "metric_batch": 200,
                "probes": {"source": "mixup", "m": 640, "alpha": 16.0}},
    "grid": {"load": {"kind": "width", "values": [2, 4, 8, 16]},
             "temp": {"kind": "batch_size", "values": [4, 16, 64, 256]},
             "replicates": 4, "base_seed": 7},
    "phase": {"eps_mc": 2.0, "sharp_quantile": 0.5, "tau_cka": 0.9, "loss_converged": 10.0},
}

WORKLOADS = {
    "small_batch": {
        "grid.load": {"kind": "width", "values": [2, 16]},
        "grid.temp": {"kind": "batch_size", "values": [4, 16]},
        "train.max_epochs": 5,
        "curve.epochs": 4,
    },
    "large_batch_noisy": {
        "grid.load": {"kind": "noise_frac", "values": [0.0, 0.1, 0.2, 0.4]},
        "grid.temp": {"kind": "batch_size", "values": [64, 256]},
        "train.max_epochs": 15,
        "curve.epochs": 12,
    },
    "curvature_heavy": {
        "model.hidden_widths": [16, 16],
        "grid.load": {"kind": "width", "values": [16, 24, 32]},
        "grid.temp": {"kind": "weight_decay", "values": [5e-4, 5e-3]},
        "grid.replicates": 2,
        "train.max_epochs": 10,
        "curve.epochs": 5,
        "metrics.metric_batch": 1000,
        "metrics.rtol": 1e-12,
        "metrics.max_iter": 50,
        "metrics.probes.m": 4000,
    },
}

WORKLOAD_SHA256 = {
    "small_batch": "91df87f3a41bd61c65b6e9476643cab5476258a6a945e3277b8fe16b99dcb259",
    "large_batch_noisy": "985fb2e2f7deffba18142d030f4a4619780e8ebed41126b79ffe2b4bebb0571a",
    "curvature_heavy": "ec472ee50571ea15a3ebb361acb523b4959adc6ae0e7397c4c771ed85d0cf47e",
}
WORKLOAD_PHASE_LABELS = {
    "small_batch": ["III", "I", "III", "II"],
    "large_batch_noisy": ["IV-B", "I", "IV-B", "I", "III", "I", "I", "III"],
    "curvature_heavy": ["III", "I", "IV-A", "I", "III", "II"],
}


def workload_config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(QUICKSTART)
    changes = {**WORKLOADS[name], "grid.base_seed": seed, "data.seed": seed}
    for path, value in changes.items():
        *parents, key = path.split(".")
        section = cfg
        for part in parents:
            section = section[part]
        section[key] = copy.deepcopy(value)
    return cfg


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_csv(request, tmp_path_factory) -> tuple[str, str]:
    """A workload's name and its results.csv at seed 1."""
    name = request.param
    path = tmp_path_factory.mktemp(name) / f"{name}.json"
    path.write_text(json.dumps(workload_config(name, 1)))
    cells, _ = run_sweep(parse_grid(load_config(path)), workers=1)
    return name, results_to_csv(cells)


def test_workload_results_csv_pinned(workload_csv):
    name, csv = workload_csv
    assert sha256(csv.encode()) == WORKLOAD_SHA256[name]


def test_workload_phase_labels_pinned(workload_csv, tmp_path):
    name, csv = workload_csv
    assert phase_labels(csv, tmp_path) == WORKLOAD_PHASE_LABELS[name]


def test_csv_subsample_of_more_rows_than_the_file_trains_on_raises(tmp_path):
    # a csv file's training rows are known only once it is read: 8 rows,
    # n_train 10, so the front 7 train and the last one tests
    path = tmp_path / "rows.csv"
    path.write_text("# d=2 classes=2\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(8)))
    recipe = DataRecipe(kind="csv", path=str(path), n_train=10)
    full, _ = datasets_from_recipe(recipe)
    assert full.n == 7
    same, _ = datasets_from_recipe(replace(recipe, subsample_n=7))
    assert np.array_equal(same.X, full.X) and np.array_equal(same.y, full.y)
    assert datasets_from_recipe(replace(recipe, subsample_n=3))[0].n == 3
    with pytest.raises(ParameterError, match="subsample_n 8 exceeds the 7 training rows"):
        datasets_from_recipe(replace(recipe, subsample_n=8))


def test_a_csv_recipe_reads_its_file_once(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_text("# d=2 classes=2\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(8)))
    calls = []
    monkeypatch.setattr(sweep, "load_csv", lambda p: calls.append(p) or load_csv(p))
    train, test = datasets_from_recipe(DataRecipe(kind="csv", path=str(path), n_train=5))
    assert calls == [str(path)]
    assert train.X[:, 0].tolist() == [0, 1, 2, 3, 4] and test.X[:, 0].tolist() == [5, 6, 7]
    assert train.y.tolist() == [0, 1, 0, 1, 0] and test.y.tolist() == [1, 0, 1]


def diverge_replicates(monkeypatch, diverged):
    """Make ``sweep.sgd_train`` report the replicates in ``diverged`` as diverged at epoch 0."""
    real = sweep.sgd_train

    def sgd_train(*args):
        trained, histories = real(*args)
        return [DivergenceError(0) if r in diverged else theta
                for r, theta in enumerate(trained)], histories

    monkeypatch.setattr(sweep, "sgd_train", sgd_train)


def test_diverged_replicate_is_skipped_and_the_rest_pair_in_order(monkeypatch):
    diverge_replicates(monkeypatch, {1})
    cell = run_cell(replace(tiny_grid(), replicates=4), 0, 0)
    assert cell.n_converged == 3
    assert [(p.replica_a, p.replica_b) for p in cell.pairs] == [(0, 2)]
    assert cell.replicates[1].lambda_max is None and cell.replicates[1].hessian_trace is None
    # replicate 3 is measured but, the odd one out, in no pair
    assert cell.replicates[3].lambda_max is not None
    assert cell.replicates[3].hessian_trace is not None


def test_fewer_than_two_converged_replicates_leave_the_pair_columns_blank(monkeypatch):
    diverge_replicates(monkeypatch, {0})
    row = run_cell(tiny_grid(), 0, 0).row()
    assert row["n_converged"] == 1 and row["hessian_trace_mean"] is not None
    for name in ("mc", "cka", "l2"):
        assert row[f"{name}_mean"] is None and row[f"{name}_sd"] is None
    assert label_rows([row], PhaseThresholds()) == ["NC"]


def test_degenerate_cka_leaves_only_the_cka_columns_blank(monkeypatch):
    def cka_between_models(*args):
        raise DegenerateOutputError("constant outputs")

    monkeypatch.setattr(sweep, "cka_between_models", cka_between_models)
    row = run_cell(tiny_grid(), 0, 0).row()
    assert row["cka_mean"] is None
    assert row["mc_mean"] is not None and row["l2_mean"] is not None


@pytest.mark.parametrize("temp_axis", [Axis("batch_size", (16, 64)),
                                       Axis("weight_decay", (0.0, 1e-3))])
def test_every_cell_trains_its_curves_with_the_grid_curve_and_its_own_weight_decay(
        temp_axis, monkeypatch):
    # the batch size is the curve's instrument and stays the grid's; the
    # weight decay is part of the cell's objective, which the curve joins
    grid = replace(tiny_grid(), temp_axis=temp_axis, curve=CurveTrainConfig(epochs=1, batch_size=50))
    calls = []
    real = sweep.train_curve

    def train_curve(spec, ends, ds, cfg, seeds, weight_decay):
        calls.append((cfg, weight_decay))
        return real(spec, ends, ds, cfg, seeds, weight_decay)

    monkeypatch.setattr(sweep, "train_curve", train_curve)
    cells, _ = run_sweep(grid, workers=1)
    wds = [sweep.cell_train_config(grid, cell.temp_value).weight_decay for cell in cells]
    assert calls == [(grid.curve, wd) for wd in wds]
    assert len(set(wds)) == (2 if temp_axis.kind == "weight_decay" else 1)


def test_the_stages_reproduce_a_cell_from_its_weights(monkeypatch):
    # the single-model commands measure through these two stages; on a
    # cell's weights and configs they give back the cell's numbers
    grid = replace(tiny_grid(), replicates=4)
    calls = []
    real = sweep.sgd_train

    def sgd_train(*args):
        trained, histories = real(*args)
        calls.append((args, trained))
        return trained, histories

    monkeypatch.setattr(sweep, "sgd_train", sgd_train)
    cell = run_cell(grid, 1, 0)
    [((spec, train_ds, _, cfg, seeds), thetas)] = calls
    key = ("width", 8, "batch_size", 32)
    assert seeds == [derive_seed(grid.base_seed, "train", *key, r) for r in range(4)]
    wd = cfg.weight_decay
    assert cell.n_converged == 4 and len(cell.pairs) == 2
    for r, (rep, theta) in enumerate(zip(cell.replicates, thetas)):
        curv_cfg = replace(grid.curvature, seed=derive_seed(grid.base_seed, "curvature", *key, r))
        eig, trace, _ = sweep.measure_curvature(spec, theta, train_ds, wd, curv_cfg)
        assert (eig.value, trace.value) == (rep.lambda_max, rep.hessian_trace)
    for pair in cell.pairs:
        a, b = pair.replica_a, pair.replica_b
        seed = derive_seed(grid.base_seed, "curve", *key, a, b)
        [profile] = sweep.connect(spec, [(thetas[a], thetas[b])], train_ds, grid.curve, [seed], wd)
        assert mode_connectivity(profile) == pair.mc and profile == pair.profile


# the second pair has one parameter count, P = 26: a size check would pass it
@pytest.mark.parametrize("dims_a, dims_b", [((3, 4, 3), (3, 5, 3)), ((3, 4, 2), (5, 3, 2))])
def test_l2_distance_rejects_a_vector_of_another_spec(dims_a, dims_b):
    spec_a, spec_b = (ModelSpec(d[0], d[1:-1], d[-1]) for d in (dims_a, dims_b))
    a = ParamVector.zeros(spec_a)
    # an equal spec built apart passes: the check compares specs, not objects
    ones = ParamVector(ModelSpec(dims_a[0], dims_a[1:-1], dims_a[-1]), np.ones(spec_a.param_count))
    assert sweep.l2_distance(a, ones) == np.sqrt(spec_a.param_count)
    with pytest.raises(DimensionError):
        sweep.l2_distance(a, ParamVector.zeros(spec_b))
