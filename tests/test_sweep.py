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

RESULTS_SHA256 = "81e045c4b4ad442a58d2520bbf40f13150d1daf8ef7396fb48c5cb8e777d9120"
PHASES_SHA256 = "d2cead490e23f5779d1cb60ad53e0d89967cc8da9b7e34855fe9ce49f9b14a08"


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


def test_phase_command_output_pinned(serial_csv, tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(serial_csv)
    out = tmp_path / "phases.csv"
    assert cli.main(["phase", "--csv", str(csv_path), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == PHASES_SHA256


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
    "small_batch": "8e37dfcede2e2c3f86dda6ac9181a47accadfe9d451812e7d3d8863f2ef4c871",
    "large_batch_noisy": "d6ce5819c1e87828b87fc8f2e40a3a0e20ca2863cbd2c116ea7fed4bcef0babd",
    "curvature_heavy": "3e3effc67adb24f41d7223694853b5225ac6ce8119b4bef141cf5cb0cc7a4c55",
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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_results_csv_pinned(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(workload_config(name, 1)))
    cells, _ = run_sweep(parse_grid(load_config(path)), workers=1)
    assert sha256(results_to_csv(cells).encode()) == WORKLOAD_SHA256[name]


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
    assert row["cka_mean"] is None and row["mu_hat"] is None
    assert row["mc_mean"] is not None and row["l2_mean"] is not None


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
        curve_cfg = replace(grid.curve, batch_size=cfg.batch_size)
        seed = derive_seed(grid.base_seed, "curve", *key, a, b)
        [profile] = sweep.connect(spec, [(thetas[a], thetas[b])], train_ds, curve_cfg, [seed], wd)
        assert mode_connectivity(profile) == pair.mc and profile.to_dict() == pair.profile


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
