"""Config parsing: bundled configs, defaults, null handling and error paths."""

import copy
import json
import math
from pathlib import Path

import pytest

import losslab
from losslab import cli, sweep
from losslab.config import (
    load_config,
    parse_data,
    parse_grid,
    parse_model,
    parse_phase,
    parse_train,
    parse_weight_decay,
)
from losslab.curvature import CurvatureConfig
from losslab.curves import CurveTrainConfig
from losslab.errors import ConfigError
from losslab.model import ModelSpec
from losslab.phases import PhaseThresholds
from losslab.sweep import Axis, DataRecipe, GridSpec, ProbeConfig
from losslab.train import LinearDecay, TrainConfig

CONFIGS = Path(losslab.__file__).parent / "configs"

QUICKSTART_MODEL = ModelSpec(input_dim=8, hidden_widths=(16,), num_classes=4)
QUICKSTART_DATA = DataRecipe(kind="blobs", n_train=1000, n_test=200, num_classes=4, dim=8,
                             spread=0.15, seed=1)
QUICKSTART_TRAIN = TrainConfig(batch_size=128, lr=0.05, weight_decay=5e-4, max_epochs=60,
                               plateau_eps=1e-4, plateau_epochs=5, seed=0)


@pytest.fixture
def sweep_cfg() -> dict:
    return load_config(CONFIGS / "quickstart_sweep.json")


def test_quickstart_sweep_parses_to_hand_built_grid(sweep_cfg):
    expected = GridSpec(
        load_axis=Axis("width", (2, 4, 8, 16)),
        temp_axis=Axis("batch_size", (4, 16, 64, 256)),
        base_model=QUICKSTART_MODEL,
        base_train=QUICKSTART_TRAIN,
        recipe=QUICKSTART_DATA,
        replicates=4,
        curve=CurveTrainConfig(epochs=50, lr=0.01, batch_size=128, k=2),
        curvature=CurvatureConfig(max_iter=100, rtol=1e-3, metric_batch=200),
        probes=ProbeConfig(source="mixup", m=640, alpha=16.0),
        base_seed=7,
    )
    assert parse_grid(sweep_cfg) == expected
    assert parse_phase(sweep_cfg) == PhaseThresholds(2.0, 0.5, 0.9, 10.0)


def test_quickstart_train_parses_to_hand_built_dataclasses():
    cfg = load_config(CONFIGS / "quickstart_train.json")
    assert parse_model(cfg) == QUICKSTART_MODEL
    assert parse_data(cfg) == QUICKSTART_DATA
    assert parse_train(cfg) == QUICKSTART_TRAIN


def edited(cfg: dict, path: str, value=None, delete: bool = False) -> dict:
    """A deep copy of ``cfg`` with the dotted ``path`` set to ``value`` or removed."""
    out = copy.deepcopy(cfg)
    *parents, key = path.split(".")
    section = out
    for part in parents:
        section = section[part]
    if delete:
        del section[key]
    else:
        section[key] = value
    return out


ERRORS = [
    # (edited path, new value or "DELETE", expected ConfigError path)
    ("train.lr", "DELETE", "train.lr"),
    ("data.kind", "DELETE", "data.kind"),
    ("model.hidden_widths", "DELETE", "model.hidden_widths"),
    ("train.batch_size", 3.5, "train.batch_size"),
    ("grid.replicates", True, "grid.replicates"),
    ("grid.replicates", 1, "grid"),
    ("train.schedule", {"start_epoch": 1, "final_fraction": 0.1}, "train.schedule.end_epoch"),
    ("grid.load.values", [], "grid.load"),
    ("metrics.rtol", 0, "metrics"),
    ("metrics.probes.source", "zzz", "metrics.probes"),
    ("curve.k", 0, "curve"),
    ("phase.eps_mc", "wide", "phase.eps_mc"),
    ("phase.eps_mc", -1.0, "phase"),
    ("train.plateu_eps", 1e-3, "train.plateu_eps"),
    ("train.bacth_size", 64, "train.bacth_size"),
    ("train.schedule", {"start_epoch": 1, "end_epoch": 2, "final_fraction": 0.1, "x": 0},
     "train.schedule.x"),
    ("metrics.probes.mm", 64, "metrics.probes.mm"),
    ("grid.load_axis", {"kind": "width", "values": [2]}, "grid.load_axis"),
    ("phase.eps", 1.0, "phase.eps"),
    ("phases", {"eps_mc": 1.0}, "phases"),
    ("train.schedule", {"start_epoch": 5, "end_epoch": 2, "final_fraction": 0.1},
     "train.schedule"),
    ("curve.schedule", {"start_epoch": 5, "end_epoch": 2, "final_fraction": 0.1},
     "curve.schedule"),
    ("grid.load.values", ["a", "b"], "grid.load"),
    ("grid.load", {"kind": "width", "values": [2.5, 16]}, "grid.load"),
    ("grid.load", {"kind": "n_samples", "values": [100, 200.5]}, "grid.load"),
    ("grid.temp.values", [4, True], "grid.temp"),
    ("grid.temp.values", [None, 16], "grid.temp"),
    ("grid.temp.values", [4, math.inf], "grid.temp"),
    ("grid.temp", {"kind": "lr", "values": ["0.1"]}, "grid.temp"),
    ("train.linear_scale_lr", True, "train.linear_scale_lr"),
    ("train.reference_batch", 64, "train.reference_batch"),
    ("model.activation", "relu", "model.activation"),
    ("metrics.probes.m", 1, "metrics.probes"),
    ("metrics.probes.alpha", 0, "metrics.probes"),
    ("metrics.probes.noise", -0.1, "metrics.probes"),
    ("train.plateau_epochs", 0, "train.plateau_epochs"),
    ("train.plateau_eps", -1.0, "train.plateau_eps"),
    ("metrics.probes.noise", 5.0, "metrics.probes"),
    ("data.noise_frac", 1.5, "data"),
    ("data.pixel_noise", -1.0, "data"),
    ("data.subsample_n", 0, "data"),
    ("data.subsample_n", 1001, "data"),
    ("model.hidden_widths", [], "grid.load"),
    # json.dumps writes NaN, Infinity and -Infinity, which json.load reads back
    ("train.lr", math.nan, "train.lr"),
    ("train.weight_decay", math.inf, "train.weight_decay"),
    ("data.spread", math.nan, "data.spread"),
    ("metrics.probes.alpha", math.inf, "metrics.probes.alpha"),
    ("data.pixel_noise", math.inf, "data.pixel_noise"),
    ("curve.lr", -math.inf, "curve.lr"),
    ("grid.temp", {"kind": "lr", "values": [math.nan]}, "grid.temp"),
    ("phase.eps_mc", math.inf, "phase.eps_mc"),
    # a JSON bool is no number, though True == 1 in Python
    ("train.lr", True, "train.lr"),
    ("train.weight_decay", False, "train.weight_decay"),
    ("phase.eps_mc", True, "phase.eps_mc"),
    ("curve.t_grid", [False, 0.5, True], "curve.t_grid"),
    ("schema", True, "schema"),
    ("schema", 1.0, "schema"),
] + [
    # a string spelling NaN is an error everywhere, one spelling inf but at phase.eps_mc;
    # quoted ids keep them apart from the JSON NaN and Infinity cases
    pytest.param(path, value, path, id=f"{path}-'{value}'-{path}")
    for path, value in [
        ("train.lr", "nan"),
        ("train.weight_decay", "inf"),
        ("curve.lr", "-inf"),
        ("data.spread", "NaN"),
        ("metrics.probes.alpha", "Infinity"),
        ("phase.tau_cka", "nan"),
        ("phase.loss_converged", "inf"),
        ("phase.eps_mc", "nan"),
    ]
]


@pytest.mark.parametrize("path,value,error_path", ERRORS)
def test_error_paths(sweep_cfg, tmp_path, path, value, error_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(edited(sweep_cfg, path, value, delete=value == "DELETE")))
    with pytest.raises(ConfigError) as info:
        cfg = load_config(cfg_path)
        parse_grid(cfg)
        parse_phase(cfg)
    assert info.value.path == error_path


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"schema": 1, "data": {"kind": "\xff"}}')
    with pytest.raises(ConfigError, match="invalid JSON.*can't decode byte 0xff") as info:
        load_config(cfg_path)
    assert info.value.path == str(cfg_path)


def test_curve_schedule_null_disables_and_absent_defaults(sweep_cfg):
    assert parse_grid(edited(sweep_cfg, "curve.schedule", None)).curve.schedule is None
    assert parse_grid(sweep_cfg).curve.schedule == LinearDecay(25, 45, 0.01)


def test_null_means_default_for_non_optional_field(sweep_cfg):
    grid = parse_grid(edited(sweep_cfg, "train.plateau_eps", None))
    assert grid.base_train.plateau_eps == 1e-4
    assert parse_phase(edited(sweep_cfg, "phase.eps_mc", None)).eps_mc == 2.0


def test_phase_eps_mc_accepts_inf(sweep_cfg):
    assert math.isinf(parse_phase(edited(sweep_cfg, "phase.eps_mc", "inf")).eps_mc)


@pytest.mark.parametrize("cfg,expected", [
    ({}, 0.0),
    ({"train": {}}, 0.0),
    ({"train": {"weight_decay": 0.01}}, 0.01),
    ({"train": {"weight_decay": 0}}, 0.0),
])
def test_weight_decay_alone(cfg, expected):
    assert parse_weight_decay(cfg) == expected


@pytest.mark.parametrize("value", ["abc", None, -1.0, math.inf, True,
                                   pytest.param("inf", id="'inf'"), pytest.param("nan", id="'nan'")])
def test_weight_decay_alone_is_checked_as_in_train(value):
    with pytest.raises(ConfigError) as info:
        parse_weight_decay({"train": {"weight_decay": value}})
    assert info.value.path == "train.weight_decay"


def test_sweep_with_bad_config_exits_2(sweep_cfg, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited(sweep_cfg, "train.lr", delete=True)))
    code = cli.main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert "train.lr" in capsys.readouterr().err


@pytest.mark.parametrize("edits,message", [
    ({"metrics.probes.m": 1}, "metrics.probes: probe count m must be >= 2"),
    ({"metrics.probes.alpha": -2.0}, "metrics.probes: alpha must be > 0"),
    ({"metrics.probes.noise": -0.5}, "metrics.probes: noise must be >= 0"),
    ({"train.plateau_epochs": 0, "train.plateau_eps": -1}, "train.plateau_epochs: must be >= 1"),
    ({"train.plateau_eps": -1}, "train.plateau_eps: must be >= 0"),
    ({"grid.temp": {"kind": "batch_size", "values": [16, 4, 0]}},
     "grid.temp: batch_size 0: must be >= 1"),
    ({"grid.temp": {"kind": "weight_decay", "values": [0.0, -1.0]}},
     "grid.temp: weight_decay -1.0: must be >= 0"),
    ({"grid.load": {"kind": "noise_frac", "values": [0.0, 1.5]}},
     "grid.load: noise_frac 1.5: noise_frac must lie in [0, 1]"),
    ({"grid.load": {"kind": "pixel_noise", "values": [0.0, -0.5]}},
     "grid.load: pixel_noise -0.5: pixel_noise must be >= 0"),
    ({"grid.load": {"kind": "width", "values": [2, 0]}},
     "grid.load: width 0: all hidden widths must be >= 1"),
    ({"grid.load": {"kind": "n_samples", "values": [500, 2000]}},
     "grid.load: n_samples 2000: subsample_n 2000 exceeds n_train 1000"),
    ({"train.lr": math.nan}, "train.lr: expected float, got nan"),
])
def test_sweep_with_bad_settings_exits_2_before_any_cell(sweep_cfg, tmp_path, capsys,
                                                         monkeypatch, edits, message):
    def refuse(*args):
        raise AssertionError("a cell ran before the config was checked")

    monkeypatch.setattr(sweep, "run_cell", refuse)
    cfg = sweep_cfg
    for path, value in edits.items():
        cfg = edited(cfg, path, value)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_axis_values_are_kept_as_given(sweep_cfg):
    cfg = edited(sweep_cfg, "grid.load", {"kind": "width", "values": [2.0, 16]})
    values = parse_grid(cfg).load_axis.values
    assert values == (2.0, 16) and [type(v) for v in values] == [float, int]
    cfg = edited(sweep_cfg, "grid.temp", {"kind": "lr", "values": [0.01, 1]})
    values = parse_grid(cfg).temp_axis.values
    assert values == (0.01, 1) and [type(v) for v in values] == [float, int]


@pytest.mark.parametrize("eps_mc", ["wide", -1.0])
def test_phase_with_bad_eps_mc_exits_2(sweep_cfg, tmp_path, capsys, eps_mc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited(sweep_cfg, "phase.eps_mc", eps_mc)))
    # the config is parsed before the CSV is read, so no CSV is needed
    code = cli.main(["phase", "--csv", str(tmp_path / "results.csv"), "--config", str(path),
                     "--out", str(tmp_path / "phases.csv")])
    assert code == 2
    assert "phase" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[], 0, False, ""])
def test_falsy_non_object_probes_are_an_error(sweep_cfg, value):
    with pytest.raises(ConfigError) as info:
        parse_grid(edited(sweep_cfg, "metrics.probes", value))
    assert info.value.path == "metrics.probes"


def test_absent_or_null_probes_take_the_defaults(sweep_cfg):
    for cfg in (edited(sweep_cfg, "metrics.probes", None),
                edited(sweep_cfg, "metrics.probes", delete=True)):
        assert parse_grid(cfg).probes == ProbeConfig()


def test_sweep_with_non_object_probes_exits_2(sweep_cfg, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a cell ran before the config was checked")

    monkeypatch.setattr(sweep, "run_cell", refuse)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited(sweep_cfg, "metrics.probes", [])))
    code = cli.main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "--workers", "1"])
    assert code == 2
    assert "metrics.probes: expected an object, got []" in capsys.readouterr().err
