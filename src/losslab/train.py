"""Minibatch SGD with plateau stopping, plus JSON checkpoints.

One training run is a pure function of (model spec, datasets, config,
seed): initialization, shuffling, and the update sequence all come from
the seed, so reruns are bit-identical.  Weight decay is coupled: the
update direction is the exact gradient of the penalized loss, i.e. the
minibatch data gradient plus ``2 * wd * theta``.

Replicates that differ only in their seed train together as one stack:
each SGD step is one ``loss_grad`` call on an ``(R, B, d)`` batch gathered
from the R shuffles.  Each replicate keeps its own generator, and its
``TrainHistory`` is its only other state.  A replicate leaves the stack
when it stops on a plateau (each of its last ``plateau_epochs`` changes
of loss below ``plateau_eps``), diverges, or reaches ``max_epochs``, so
its result is bitwise what it gets alone.  It returns the weights it
stopped with, and its last epoch-end record, the penalized training loss
and test accuracy as ``evaluate`` gives them, measures those weights.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import parse_model
from .datasets import Dataset
from .errors import ConfigError, DimensionError, DivergenceError, FormatError, ParameterError
from .model import Batch, ModelSpec, ParamVector, evaluate, he_init, loss_grad, require_matching
# forward is not called here, but the benchmark's tracer rebinds
# train.forward, so the name must stay bound
from .model import forward  # noqa: F401
from .phases import write_json
from .rng import Rng, permutations


@dataclass(frozen=True)
class LinearDecay:
    """Linear learning-rate ramp from full rate down to a final fraction."""

    start_epoch: int
    end_epoch: int
    final_fraction: float

    def __post_init__(self):
        if self.start_epoch >= self.end_epoch:
            raise ParameterError("start_epoch must precede end_epoch")
        if not 0.0 <= self.final_fraction <= 1.0:
            raise ParameterError("final_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr: float = 0.05
    weight_decay: float = 5e-4
    max_epochs: int = 150
    plateau_eps: float = 1e-4
    plateau_epochs: int = 5
    schedule: LinearDecay | None = None
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("train.batch_size", "must be >= 1")
        # lr == 0 is legal: a zero-step run must leave the init untouched.
        if self.lr < 0:
            raise ConfigError("train.lr", "must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("train.weight_decay", "must be >= 0")
        if self.max_epochs < 1:
            raise ConfigError("train.max_epochs", "must be >= 1")
        if self.plateau_epochs < 1:
            raise ConfigError("train.plateau_epochs", "must be >= 1")
        if not self.plateau_eps >= 0:
            raise ConfigError("train.plateau_eps", "must be >= 0")


def schedule_lr(epoch: int, base_lr: float, schedule: LinearDecay | None) -> float:
    """Learning rate at a given (0-based) epoch under an optional decay."""
    if schedule is None:
        return base_lr
    if epoch < schedule.start_epoch:
        return base_lr
    if epoch >= schedule.end_epoch:
        return base_lr * schedule.final_fraction
    span = schedule.end_epoch - schedule.start_epoch
    frac = (epoch - schedule.start_epoch) / span
    return base_lr * (1.0 - frac * (1.0 - schedule.final_fraction))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    lr_used: float


@dataclass
class TrainHistory:
    """One replicate's epoch-end records, ``records[e]`` for epoch e: the
    only record of its progress, from which the training loop decides.
    The last record measures the weights the replicate returns.

    ``stopped_by_plateau`` is set at the first record whose last
    ``plateau_epochs`` changes of loss are each below ``plateau_eps``.
    """

    records: list[EpochRecord] = field(default_factory=list)
    stopped_by_plateau: bool = False


class StackHistory(list):
    """The histories of replicates trained together, in seed order.

    ``records`` and ``stopped_by_plateau`` total the replicates, so the
    stack reads like one run: all epochs trained, and how many replicates
    stopped on a plateau.
    """

    @property
    def records(self) -> list[EpochRecord]:
        return [rec for history in self for rec in history.records]

    @property
    def stopped_by_plateau(self) -> int:
        return sum(history.stopped_by_plateau for history in self)


def epoch_batches(n: int, batch_size: int, rngs: Sequence[Rng]) -> list[np.ndarray]:
    """Shuffled disjoint minibatch index blocks covering every row once.

    Each block is an ``(R, batch)`` array for the R generators; its row r
    is the block generator r alone gives.
    """
    perm = permutations(rngs, n)
    return [perm[:, i : i + batch_size] for i in range(0, n, batch_size)]


def check_dataset(spec: ModelSpec, ds: Dataset, which: str) -> None:
    """Raise DimensionError, naming ``which`` data, unless ``ds`` has the
    spec's input dimension and class count."""
    if ds.dim != spec.input_dim:
        raise DimensionError(f"{which} dimension {ds.dim} != input_dim {spec.input_dim}")
    if ds.num_classes != spec.num_classes:
        raise DimensionError(f"{which} classes {ds.num_classes} != num_classes {spec.num_classes}")


def sgd_train(spec: ModelSpec, train: Dataset, test: Dataset, cfg: TrainConfig,
              seeds: Sequence[int]):
    """Train one MLP per seed under ``cfg`` (whose ``seed`` is not read).
    A replicate runs ``max_epochs`` unless its history reaches the
    plateau stop first.

    Returns ``(results, StackHistory)``: per seed the weights it stopped
    with, or the DivergenceError that ended it on a non-finite loss.  Its
    last record holds the penalized training loss and test accuracy,
    bitwise what ``evaluate`` gives on the returned weights.
    """
    check_dataset(spec, train, "train")
    check_dataset(spec, test, "test")
    if not seeds:
        raise ParameterError("sgd_train needs at least one seed")
    wd = cfg.weight_decay
    rngs = list(map(Rng, seeds))
    results: list = [None] * len(seeds)  # final weights, or what ended the run
    histories = StackHistory(TrainHistory() for _ in seeds)
    active = list(range(len(seeds)))  # the replicate of each stack row
    theta = ParamVector(spec, np.stack([he_init(spec, rng).values for rng in rngs]))

    for epoch in range(cfg.max_epochs):
        grad = ParamVector(spec, np.empty_like(theta.values))
        finite = np.ones(len(active), dtype=bool)
        lr_t = schedule_lr(epoch, cfg.lr, cfg.schedule)
        # overflow on the way to a non-finite loss is expected and ends
        # the replicate, so the numpy warnings are just noise here
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in epoch_batches(train.n, cfg.batch_size, [rngs[r] for r in active]):
                batch = Batch(train.X[idx], train.y[idx])
                losses, _ = loss_grad(spec, theta, batch, wd, grad)
                # a replicate that diverged rides along until the epoch ends;
                # the rows never mix, so the others are unaffected
                finite &= np.isfinite(losses)
                theta.values -= lr_t * grad.values

            train_eval = evaluate(spec, theta, train, wd)
            test_eval = evaluate(spec, theta, test)
            keep = []
            for i, r in enumerate(active):
                epoch_loss = float(train_eval.loss[i])
                if not (finite[i] and np.isfinite(epoch_loss)):
                    results[r] = DivergenceError(epoch)
                    continue
                history = histories[r]
                history.records.append(EpochRecord(
                    epoch, epoch_loss, float(train_eval.acc[i]), float(test_eval.loss[i]),
                    float(test_eval.acc[i]), lr_t))
                window = history.records[-cfg.plateau_epochs - 1:]
                if len(window) > cfg.plateau_epochs and all(
                        abs(b.train_loss - a.train_loss) < cfg.plateau_eps
                        for a, b in zip(window, window[1:])):
                    history.stopped_by_plateau = True
                    results[r] = ParamVector(spec, theta.values[i].copy())
                    continue
                keep.append(i)
        if len(keep) < len(active):
            theta = ParamVector(spec, theta.values[keep])
            active = [active[i] for i in keep]
        if not active:
            break
    for i, r in enumerate(active):
        results[r] = ParamVector(spec, theta.values[i])
    return results, histories


# -- checkpoint persistence ---------------------------------------------


def save_checkpoint(theta: ParamVector, spec: ModelSpec, meta: dict, path) -> None:
    """Write one JSON object, ``{"schema": 1, "model": {"input_dim": ...,
    "hidden_widths": [...], "num_classes": ...}, "values": [...], "meta": {...}}``,
    through ``phases.write_json``.

    ``values`` is the flat parameter vector.  JSON writes each float in
    Python's shortest round-trip repr, so ``load_checkpoint`` gives the
    values back bitwise, -0.0 and subnormals included.
    """
    require_matching(spec, theta)
    ckpt = {"schema": 1, "model": asdict(spec), "values": theta.values.tolist(), "meta": meta}
    write_json(ckpt, path)


def _parse_finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise FormatError(f"non-finite value {token}")
    return value


def load_checkpoint(path) -> tuple[ParamVector, ModelSpec, dict]:
    """The (theta, spec, meta) that ``save_checkpoint`` wrote at ``path``.

    The model section is checked as a config's ``model`` is.  A file
    that is not UTF-8 JSON, a NaN or infinite number, a key missing or
    unknown, a schema other than 1, a value that is not a float, a value
    count the model does not have, or a meta that is not an object
    raises a FormatError that names the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors; too deep a nesting recurses
        ckpt = json.loads(raw.decode("utf-8"), parse_float=_parse_finite,
                          parse_constant=_parse_finite)
        if not isinstance(ckpt, dict):
            raise FormatError("not a JSON object")
        if sorted(ckpt) != ["meta", "model", "schema", "values"]:
            raise FormatError(f"keys {sorted(ckpt)} are not meta, model, schema and values")
        if type(ckpt["schema"]) is not int or ckpt["schema"] != 1:
            raise FormatError(f"expected schema 1, got {ckpt['schema']!r}")
        values, meta = ckpt["values"], ckpt["meta"]
        if not isinstance(values, list) or not all(type(v) is float for v in values):
            raise FormatError("values must be a list of floats")
        if not isinstance(meta, dict):
            raise FormatError(f"meta must be an object, got {meta!r}")
        spec = parse_model(ckpt)
        return ParamVector(spec, values), spec, meta
    except (ValueError, RecursionError, ConfigError, DimensionError, FormatError) as exc:
        raise FormatError(f"malformed checkpoint {path}: {exc}") from None
