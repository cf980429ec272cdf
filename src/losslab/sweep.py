"""Orchestration of the 2D load-temperature grid.

Each cell trains R replicates at one (load value, temperature value)
pair, measures per-model curvature and accuracy, then forms disjoint
replicate pairs for the pairwise metrics (mode connectivity, CKA,
parameter-space distance).  The R replicates train as one stacked
``sgd_train`` call with the cell's config, the pairs' curves as one
stacked ``train_curve`` call with ``grid.curve`` (one instrument over
the grid) and the cell's weight decay (its objective), each with a seed
per replicate or pair.  A replicate's training loss and test accuracy
are read from its training history, at the epoch whose weights training
returned; curvature, CKA and curve profiles are measured per model and
per pair.  All randomness is derived from seeds keyed by axis *values*,
never indices, so extending the grid or reordering cell execution cannot
change any existing cell's numbers.  The CKA probes are keyed by the
cell's data recipe alone, so every cell that trains on the same data
compares its replicates on the same inputs; each cell builds its own
copy of the set.

Two stages measure for both a cell and the single-model commands:
``measure_curvature`` (lambda_max and the trace of one model) and
``connect`` (the curve profiles of replicate pairs).  They live here and
call this module's names, positionally, because the benchmark's tracer
rebinds ``sweep.draw_metric_batch``, ``top_eigenvalue``,
``trace_hutchinson``, ``train_curve`` and ``curve_profile`` and reads
the estimators' arguments.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .cka import cka_between_models
# trace_hutchinson is the exact trace; the benchmark's tracer rebinds it by this name
from .curvature import CurvatureConfig, draw_metric_batch, top_eigenvalue, trace_hutchinson
from .curves import CurveTrainConfig, curve_profile, mode_connectivity, train_curve
from .datasets import (
    Dataset,
    ProbeSet,
    gen_blobs,
    gen_spirals,
    load_csv,
    mixup_probes,
    perturb_uniform,
    randomize_labels,
    raw_probes,
    subsample,
)
from .errors import ConfigError, DegenerateOutputError, DivergenceError, ParameterError
# evaluate is not called here, but the benchmark's tracer rebinds
# sweep.evaluate, so the name must stay bound
from .model import ModelSpec, ParamVector, evaluate, require_matching  # noqa: F401
# read_results_csv is not called here; the benchmark reads it as sweep.read_results_csv
from .phases import read_results_csv, rows_to_csv  # noqa: F401
from .rng import derive_seed
from .train import TrainConfig, sgd_train

LOAD_KINDS = ("width", "n_samples", "noise_frac", "pixel_noise")
TEMP_KINDS = ("batch_size", "lr", "weight_decay")
_INT_KINDS = {"width", "n_samples", "batch_size"}

def l2_distance(theta_a: ParamVector, theta_b: ParamVector) -> float:
    """Euclidean distance between two parameter vectors."""
    require_matching(theta_a.spec, theta_b)
    return float(np.linalg.norm(theta_a.values - theta_b.values))


@dataclass(frozen=True)
class DataRecipe:
    """How to build one task instance's train/test datasets."""

    kind: str = "blobs"
    n_train: int = 1000
    n_test: int = 200
    num_classes: int = 4
    dim: int = 8
    spread: float = 0.15
    arm_noise: float = 0.05
    path: str | None = None
    subsample_n: int | None = None
    noise_frac: float = 0.0
    pixel_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed % 2**64)  # the probe key reads the repr
        if self.kind not in ("blobs", "spirals", "csv"):
            raise ParameterError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ParameterError("csv recipe needs a path")
        if not 0.0 <= self.noise_frac <= 1.0:
            raise ParameterError("noise_frac must lie in [0, 1]")
        if not self.pixel_noise >= 0:
            raise ParameterError("pixel_noise must be >= 0")
        if self.subsample_n is not None:
            if self.subsample_n < 1:
                raise ParameterError("subsample_n must be >= 1")
            # a csv file's training rows are known only once it is read
            if self.kind != "csv" and self.subsample_n > self.n_train:
                raise ParameterError(
                    f"subsample_n {self.subsample_n} exceeds n_train {self.n_train}")


@dataclass(frozen=True)
class ProbeConfig:
    source: str = "mixup"
    m: int = 640
    alpha: float = 16.0
    noise: float = 0.0

    def __post_init__(self):
        if self.source not in ("mixup", "pixel_noise", "raw"):
            raise ParameterError(f"unknown probe source {self.source!r}")
        if self.m < 2:
            raise ParameterError("probe count m must be >= 2")
        if not self.alpha > 0:
            raise ParameterError("alpha must be > 0")
        if not self.noise >= 0:
            raise ParameterError("noise must be >= 0")
        if self.noise != 0 and self.source != "pixel_noise":
            raise ParameterError(f"noise applies only to source 'pixel_noise', not {self.source!r}")


@dataclass(frozen=True)
class Axis:
    kind: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ParameterError("axis needs at least one value")
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ParameterError(f"axis values must be numbers, got {v!r}")
            if not -np.inf < v < np.inf:  # np.isfinite on a scalar adds ~0.1 MB of RSS
                raise ParameterError(f"axis values must be finite, got {v!r}")
            if self.kind in _INT_KINDS and not float(v).is_integer():
                raise ParameterError(f"{self.kind} axis values must be integers, got {v!r}")
        diffs = np.diff(np.asarray(self.values, dtype=np.float64))
        if len(self.values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ParameterError(f"axis values must be strictly monotone: {self.values}")


@dataclass(frozen=True)
class GridSpec:
    load_axis: Axis
    temp_axis: Axis
    base_model: ModelSpec
    base_train: TrainConfig
    recipe: DataRecipe
    replicates: int = 5
    curve: CurveTrainConfig = CurveTrainConfig()
    curvature: CurvatureConfig = CurvatureConfig()
    probes: ProbeConfig = ProbeConfig()
    base_seed: int = 0

    def __post_init__(self):
        if self.load_axis.kind not in LOAD_KINDS:
            raise ParameterError(f"load axis kind must be one of {LOAD_KINDS}")
        if self.temp_axis.kind not in TEMP_KINDS:
            raise ParameterError(f"temperature axis kind must be one of {TEMP_KINDS}")
        if self.replicates < 2:
            raise ParameterError("pairing requires at least 2 replicates")
        if self.load_axis.kind == "width" and not self.base_model.hidden_widths:
            raise ConfigError("grid.load", "a width axis needs a model with hidden layers")
        # build every cell's settings once, so a bad axis value fails
        # here and not after the cells before it have trained
        load, temp = self.load_axis.kind, self.temp_axis.kind
        for v in self.load_axis.values:
            try:
                cell_model_spec(self, v)
                cell_recipe(self, v)
            except ParameterError as exc:
                raise ConfigError("grid.load", f"{load} {_axis_value(load, v)}: {exc}") from None
        for v in self.temp_axis.values:
            try:
                cell_train_config(self, v)
            except ConfigError as exc:
                message = f"{temp} {_axis_value(temp, v)}: {exc.message}"
                raise ConfigError("grid.temp", message) from None


@dataclass
class ReplicateMetrics:
    seed: int
    converged: bool
    train_loss: float | None = None
    test_acc: float | None = None
    lambda_max: float | None = None
    hessian_trace: float | None = None


@dataclass
class PairMetrics:
    replica_a: int
    replica_b: int
    mc: float | None = None
    cka: float | None = None
    l2: float | None = None
    profile: dict | None = None


@dataclass
class CellResult:
    load_kind: str
    load_value: float
    temp_kind: str
    temp_value: float
    replicates: list[ReplicateMetrics] = field(default_factory=list)
    pairs: list[PairMetrics] = field(default_factory=list)

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)

    @property
    def n_converged(self) -> int:
        return sum(r.converged for r in self.replicates)

    @property
    def converged(self) -> bool:
        return self.n_converged > 0

    def _rep_values(self, name):
        return [getattr(r, name) for r in self.replicates if r.converged]

    def _pair_values(self, name):
        return [getattr(p, name) for p in self.pairs if getattr(p, name) is not None]

    @staticmethod
    def _mean_sd(values):
        if not values:
            return None, None
        arr = np.asarray(values, dtype=np.float64)
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return float(arr.mean()), sd

    def aggregate(self) -> dict:
        """The CSV's metric columns: means and sample SDs over converged
        replicates / valid pairs, plus the mu and beta estimates."""
        out = {}
        for name in ("train_loss", "test_acc", "lambda_max", "hessian_trace"):
            mean, sd = self._mean_sd(self._rep_values(name))
            out[f"{name}_mean"] = mean
            out[f"{name}_sd"] = sd
        for name in ("mc", "cka", "l2"):
            mean, sd = self._mean_sd(self._pair_values(name))
            out[f"{name}_mean"] = mean
            out[f"{name}_sd"] = sd
        out["mu_hat"] = out["cka_mean"]
        out["beta_hat"] = out["mc_mean"]
        return out

    def row(self) -> dict:
        """This cell as one ``results.csv`` row, keyed by ``phases.CSV_COLUMNS``."""
        return {
            "load_kind": self.load_kind, "load_value": self.load_value,
            "temp_kind": self.temp_kind, "temp_value": self.temp_value,
            "n_replicates": self.n_replicates, "n_converged": self.n_converged,
            **self.aggregate(),
            "phase_label": "",  # filled by ``losslab phase``
        }


def _axis_value(kind: str, value):
    """Canonical form of an axis value (ints stay ints), used in seed keys and rows."""
    return int(value) if kind in _INT_KINDS else float(value)


def _base_dataset(recipe: DataRecipe, which: str) -> Dataset:
    seed = derive_seed(recipe.seed, "dataset", which)
    n = recipe.n_train if which == "train" else recipe.n_test
    if recipe.kind == "blobs":
        return gen_blobs(n, recipe.num_classes, recipe.dim, recipe.spread, seed)
    return gen_spirals(n, recipe.num_classes, recipe.arm_noise, seed)


def datasets_from_recipe(recipe: DataRecipe) -> tuple[Dataset, Dataset]:
    """Train/test datasets with the fixed pipeline applied to the train side.

    The pipeline order is subsample -> label randomization -> pixel
    noise, with stage seeds keyed by the stage parameter value, so any
    two recipes sharing a stage value share its output bit-for-bit.
    The test set stays clean.
    """
    if recipe.kind == "csv":
        ds = load_csv(recipe.path)
        # one file serves both roles: deterministic front/back split
        n_train = min(recipe.n_train, ds.n - 1)
        train = Dataset(ds.X[:n_train], ds.y[:n_train], ds.num_classes, ds.name)
        test = Dataset(ds.X[n_train:], ds.y[n_train:], ds.num_classes, ds.name)
    else:
        train, test = _base_dataset(recipe, "train"), _base_dataset(recipe, "test")
    n_keep = recipe.subsample_n
    if n_keep is not None and n_keep > train.n:
        raise ParameterError(f"subsample_n {n_keep} exceeds the {train.n} training rows")
    if n_keep is not None and n_keep < train.n:
        train = subsample(train, n_keep, derive_seed(recipe.seed, "subsample", n_keep))
    if recipe.noise_frac > 0.0:
        train = randomize_labels(
            train, recipe.noise_frac, derive_seed(recipe.seed, "labels", recipe.noise_frac)
        )
    if recipe.pixel_noise > 0.0:
        X = perturb_uniform(
            train.X, recipe.pixel_noise, derive_seed(recipe.seed, "pixel", recipe.pixel_noise))
        train = Dataset(X, train.y, train.num_classes, train.name)
    return train, test


def cell_recipe(grid: GridSpec, load_value) -> DataRecipe:
    """The data recipe of one grid column: the load axis overrides its recipe field."""
    kind = grid.load_axis.kind
    value = _axis_value(kind, load_value)
    if kind == "n_samples":
        return replace(grid.recipe, subsample_n=value)
    if kind in ("noise_frac", "pixel_noise"):
        return replace(grid.recipe, **{kind: value})
    return grid.recipe


def build_cell_dataset(grid: GridSpec, load_value) -> tuple[Dataset, Dataset]:
    """Datasets for one grid column."""
    return datasets_from_recipe(cell_recipe(grid, load_value))


def cell_model_spec(grid: GridSpec, load_value) -> ModelSpec:
    base = grid.base_model
    if grid.load_axis.kind != "width":
        return base
    width = _axis_value("width", load_value)
    return replace(base, hidden_widths=tuple(width for _ in base.hidden_widths))


def cell_train_config(grid: GridSpec, temp_value) -> TrainConfig:
    kind = grid.temp_axis.kind
    return replace(grid.base_train, **{kind: _axis_value(kind, temp_value)})


def build_probes(ds: Dataset, cfg: ProbeConfig, seed: int):
    """The CKA probe inputs drawn from ``ds`` as ``cfg`` describes."""
    if cfg.source == "mixup":
        return mixup_probes(ds, cfg.m, cfg.alpha, seed)
    probes = raw_probes(ds, cfg.m, derive_seed(seed, "rows"))
    if cfg.source == "raw":
        return probes
    return ProbeSet(perturb_uniform(probes.X, cfg.noise, derive_seed(seed, "noise")),
                    f"pixel_noise(u={cfg.noise:g})")


def measure_curvature(spec: ModelSpec, theta: ParamVector, ds: Dataset, weight_decay: float,
                      cfg: CurvatureConfig) -> tuple:
    """Lanczos lambda_max and the Hessian trace on ``ds``'s frozen metric batch, and the batch."""
    batch = draw_metric_batch(ds, cfg)
    return (top_eigenvalue(spec, theta, batch, weight_decay, cfg),
            trace_hutchinson(spec, theta, batch, weight_decay, cfg), batch)


def connect(spec: ModelSpec, ends: list, ds: Dataset, cfg: CurveTrainConfig, seeds: list,
            weight_decay: float) -> list:
    """Per pair of ``ends`` and seed: its curve's profile on cfg.t_grid, or its DivergenceError."""
    curves = train_curve(spec, ends, ds, cfg, seeds, weight_decay)
    return [c if isinstance(c, DivergenceError) else curve_profile(spec, c, ds, cfg.t_grid)
            for c in curves]


def run_cell(grid: GridSpec, i: int, j: int) -> CellResult:
    """Train and measure one (load, temperature) cell; divergence is data."""
    load_value = _axis_value(grid.load_axis.kind, grid.load_axis.values[i])
    temp_value = _axis_value(grid.temp_axis.kind, grid.temp_axis.values[j])
    key = (grid.load_axis.kind, load_value, grid.temp_axis.kind, temp_value)

    spec = cell_model_spec(grid, load_value)
    train_ds, test_ds = build_cell_dataset(grid, load_value)
    cell = CellResult(
        load_kind=grid.load_axis.kind, load_value=load_value,
        temp_kind=grid.temp_axis.kind, temp_value=temp_value)

    cfg = cell_train_config(grid, temp_value)
    wd = cfg.weight_decay
    seeds = [derive_seed(grid.base_seed, "train", *key, r) for r in range(grid.replicates)]
    trained, histories = sgd_train(spec, train_ds, test_ds, cfg, seeds)
    thetas: dict[int, ParamVector] = {}
    for r, (seed, theta, history) in enumerate(zip(seeds, trained, histories)):
        rep = ReplicateMetrics(seed=seed, converged=not isinstance(theta, DivergenceError))
        cell.replicates.append(rep)
        if not rep.converged:
            continue
        best = history.records[history.best_train_loss_epoch]
        rep.train_loss = best.train_loss
        rep.test_acc = best.test_acc
        curv_cfg = replace(grid.curvature, seed=derive_seed(grid.base_seed, "curvature", *key, r))
        eig, trace, _ = measure_curvature(spec, theta, train_ds, wd, curv_cfg)
        rep.lambda_max, rep.hessian_trace = eig.value, trace.value
        thetas[r] = theta

    converged_ids = sorted(thetas)
    if len(converged_ids) < 2:
        return cell
    probe_seed = derive_seed(grid.base_seed, "probes", repr(cell_recipe(grid, load_value)))
    probes = build_probes(train_ds, grid.probes, probe_seed)
    pairs = [PairMetrics(replica_a=a, replica_b=b)
             for a, b in zip(converged_ids[0::2], converged_ids[1::2])]
    curve_seeds = [derive_seed(grid.base_seed, "curve", *key, p.replica_a, p.replica_b)
                   for p in pairs]
    profiles = connect(spec, [(thetas[p.replica_a], thetas[p.replica_b]) for p in pairs],
                       train_ds, grid.curve, curve_seeds, wd)
    for pair, profile in zip(pairs, profiles):
        theta_a, theta_b = thetas[pair.replica_a], thetas[pair.replica_b]
        pair.l2 = l2_distance(theta_a, theta_b)
        try:
            pair.cka = cka_between_models(spec, theta_a, theta_b, probes)
        except DegenerateOutputError:
            pair.cka = None
        if not isinstance(profile, DivergenceError):
            pair.mc = mode_connectivity(profile)
            pair.profile = profile.to_dict()
        cell.pairs.append(pair)
    return cell


def run_sweep(grid: GridSpec, workers: int = 1) -> tuple[list[CellResult], dict]:
    """All grid cells, in grid order (optionally in parallel), plus a provenance manifest."""
    tasks = [(i, j) for i in range(len(grid.load_axis.values))
             for j in range(len(grid.temp_axis.values))]
    args = (repeat(grid), *zip(*tasks))
    workers = min(workers, len(tasks))  # a pool starts all its workers up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, *args))
    else:
        cells = list(map(run_cell, *args))
    manifest = {
        "schema": 1,
        "grid": dataclasses.asdict(grid),
        "base_seed": grid.base_seed,
        "workers": workers,
    }
    return cells, manifest


def results_to_csv(cells: list[CellResult]) -> str:
    return rows_to_csv([cell.row() for cell in cells])
