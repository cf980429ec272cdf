"""JSON run-configuration parsing with field-path error reporting.

Anything that can change a result lives in the config file (flags only
pick files, workers and output locations), so manifests capture complete
provenance.  Top-level keys mirror the owning modules: model, data,
train, curve, metrics, grid, phase.  Each section is built from the
fields and type hints of its dataclass, where every default lives.  An
absent key takes the default; null means None for an Optional field,
else the default.  A key that names no field or section is an error, so
a misspelled setting cannot silently fall back to its default.  A float
field takes a finite number (JSON ``true`` and ``false`` are not
numbers), or a string that spells one; only ``phase.eps_mc`` may be
infinite, as the string ``"inf"``.  ``schema`` is the integer 1.

The single-model commands train, hessian and modeconn train and measure
through the same functions as a sweep cell (``sgd_train``,
``sweep.measure_curvature`` and ``sweep.connect``) and differ from it
only in the settings a sweep replaces in every cell, so in a sweep
config those settings apply only to these commands:
``train.seed``, ``curve.seed`` and ``metrics.seed`` are derived per cell
and replicate from ``grid.base_seed``, and ``curve.batch_size`` becomes
the cell's training batch size: the trainers take one config and a
seed per replicate or curve.  Every seed is taken mod 2**64.  The grid
axes replace the fields they name (a width axis every hidden width, a
batch-size axis ``train.batch_size``), and every axis value is checked
when the grid is parsed, before any cell runs.

Each ``parse_*`` function imports its section's dataclass from the
owning module when it is called, and ``REQUIRED`` and ``NESTED`` are
keyed by class name, so importing this module loads no other part of
the package.  ``load_config`` and ``parse_phase`` need only the standard
library, which keeps ``losslab phase`` free of numpy.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError, ParameterError

if typing.TYPE_CHECKING:
    from .curvature import CurvatureConfig
    from .curves import CurveTrainConfig
    from .model import ModelSpec
    from .phases import PhaseThresholds
    from .sweep import DataRecipe, GridSpec, ProbeConfig
    from .train import TrainConfig

SCHEMA_VERSION = 1
SECTIONS = ("schema", "model", "data", "train", "curve", "metrics", "grid", "phase")

# Fields a config must give even though the dataclass has a default, by class name.
REQUIRED = {
    "DataRecipe": ("kind",),
    "TrainConfig": ("batch_size", "lr", "weight_decay", "max_epochs"),
}

# Keys of a section that hold a nested section parsed on its own, by class name.
NESTED = {
    "CurvatureConfig": ("probes",),
    "GridSpec": ("load", "temp"),
}


# The float fields a string may set to infinity ("inf"), by config path.
UNBOUNDED = ("phase.eps_mc",)


def _convert(hint, value, path: str):
    """``value`` as the type ``hint`` names, or a ConfigError at ``path``."""
    args = typing.get_args(hint)
    if type(None) in args:  # every Optional field is written ``X | None``
        return None if value is None else _convert(args[0], value, path)
    if is_dataclass(hint):
        return _build(hint, value, path)
    if hint is tuple or typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected list, got {value!r}")
        return tuple(_convert(args[0], v, path) for v in value) if args else tuple(value)
    try:  # JSON's NaN and Infinity are errors; a string may spell inf only at an UNBOUNDED path
        if hint is float and not isinstance(value, bool) and (
                isinstance(value, str) or math.isfinite(value)):
            number = float(value)
            if math.isfinite(number) or (math.isinf(number) and path in UNBOUNDED):
                return number
        if hint is int and not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    if hint in (bool, str) and isinstance(value, hint):
        return value
    raise ConfigError(path, f"expected {hint.__name__}, got {value!r}")


def _build(cls, sec, path: str, **given):
    """The dataclass ``cls`` from the config object ``sec``; ``given`` fields are used as is."""
    if not isinstance(sec, dict):
        raise ConfigError(path, f"expected an object, got {sec!r}")
    nested = NESTED.get(cls.__name__, ())
    known = {f.name for f in fields(cls) if f.name not in given} | set(nested)
    for key in sec:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")
    hints = typing.get_type_hints(cls)
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        value = sec.get(f.name)
        optional = type(None) in typing.get_args(hints[f.name])
        if value is None and (f.name not in sec or not optional):
            if f.default is MISSING or f.name in REQUIRED.get(cls.__name__, ()):
                raise ConfigError(f"{path}.{f.name}", "missing required field")
            continue
        kwargs[f.name] = _convert(hints[f.name], value, f"{path}.{f.name}")
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from None


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on bytes not UTF-8
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top level must be an object")
    schema = cfg.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected schema {SCHEMA_VERSION}, got {schema!r}")
    for key in cfg:
        if key not in SECTIONS:
            raise ConfigError(key, "unknown section")
    return cfg


def parse_model(cfg: dict) -> ModelSpec:
    from .model import ModelSpec

    return _build(ModelSpec, cfg.get("model"), "model")


def parse_data(cfg: dict) -> DataRecipe:
    from .sweep import DataRecipe

    return _build(DataRecipe, cfg.get("data"), "data")


def parse_train(cfg: dict) -> TrainConfig:
    from .train import TrainConfig

    return _build(TrainConfig, cfg.get("train"), "train")


def parse_weight_decay(cfg: dict) -> float:
    """``train.weight_decay`` alone, checked as ``parse_train`` checks it; 0.0 when absent."""
    from .train import TrainConfig

    sec = cfg.get("train", {})
    if not isinstance(sec, dict):
        raise ConfigError("train", f"expected an object, got {sec!r}")
    if "weight_decay" not in sec:
        return 0.0
    wd = _convert(float, sec["weight_decay"], "train.weight_decay")
    return TrainConfig(weight_decay=wd).weight_decay


def parse_curve(cfg: dict) -> CurveTrainConfig:
    from .curves import CurveTrainConfig

    return _build(CurveTrainConfig, cfg.get("curve", {}), "curve")


def parse_metrics(cfg: dict) -> tuple[CurvatureConfig, ProbeConfig]:
    from .curvature import CurvatureConfig
    from .sweep import ProbeConfig

    sec = cfg.get("metrics", {})
    curvature = _build(CurvatureConfig, sec, "metrics")
    probes = sec.get("probes")  # absent or null: the defaults; any other non-object: an error
    return curvature, _build(ProbeConfig, {} if probes is None else probes, "metrics.probes")


def parse_grid(cfg: dict) -> GridSpec:
    from .sweep import Axis, GridSpec

    sec = cfg.get("grid")
    if not isinstance(sec, dict):
        raise ConfigError("grid", f"expected an object, got {sec!r}")
    curvature, probes = parse_metrics(cfg)
    return _build(
        GridSpec, sec, "grid",
        load_axis=_build(Axis, sec.get("load"), "grid.load"),
        temp_axis=_build(Axis, sec.get("temp"), "grid.temp"),
        base_model=parse_model(cfg), base_train=parse_train(cfg), recipe=parse_data(cfg),
        curve=parse_curve(cfg), curvature=curvature, probes=probes,
    )


def parse_phase(cfg: dict | None) -> PhaseThresholds:
    from .phases import PhaseThresholds

    return _build(PhaseThresholds, (cfg or {}).get("phase", {}), "phase")
