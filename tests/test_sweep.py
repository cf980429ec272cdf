"""Golden-output guards for the grid sweep and the phase command.

The pinned digests fix every byte of ``results.csv`` and ``phases.csv``
for one tiny grid, so a change to the layout, config or CSV code that
alters any number or its formatting fails here.
"""

import hashlib
from dataclasses import replace

import pytest

from losslab import cli
from losslab.curvature import CurvatureConfig
from losslab.curves import CurveTrainConfig
from losslab.model import ModelSpec
from losslab.sweep import (
    Axis,
    DataRecipe,
    GridSpec,
    ProbeConfig,
    read_results_csv,
    results_to_csv,
    rows_to_csv,
    run_sweep,
)
from losslab.train import TrainConfig

RESULTS_SHA256 = "6e33cbbe0d1c9caea65c668408a4025a7e68751c0adff021c8ca8e885170f744"
PHASES_SHA256 = "4a14b980cccd4d6c5e4427217dd6ddd7f0b8c683472377797466806f60901fa1"


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


def test_extending_an_axis_leaves_old_cells_unchanged(serial_csv):
    grid = tiny_grid()
    extended = replace(grid, temp_axis=Axis("batch_size", (*grid.temp_axis.values, 256)))
    cells, _ = run_sweep(extended, workers=1)
    assert len(cells) == 6
    old_cells = [cell for cell in cells if cell.temp_value != 256]
    assert results_to_csv(old_cells) == serial_csv


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
