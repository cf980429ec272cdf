"""Minibatch SGD with plateau stopping, plus checkpoints.

One training run is a pure function of (model spec, datasets, config):
initialization, shuffling, and the update sequence all come from the
config seed, so reruns are bit-identical.  Weight decay is coupled: the
update direction is the exact gradient of the penalized loss, i.e. the
minibatch data gradient plus ``2 * wd * theta``.

Replicates that differ only in their seed train together as one stack:
each SGD step is one ``loss_grad`` call on an ``(R, B, d)`` batch gathered
from the R shuffles.  Each replicate keeps its own generator, plateau
stop, best-loss selection and divergence check, and leaves the stack when
it stops or diverges, so its result is bitwise what it gets alone.  Each
epoch-end record holds the replicate's penalized training loss and test
accuracy as ``evaluate`` gives them, so the record of the best epoch is
the measurement of the returned weights.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, DimensionError, DivergenceError, FormatError, ParameterError
from .model import Batch, ModelSpec, ParamVector, evaluate, he_init, loss_grad, require_matching
# forward is not called here, but the benchmark's tracer rebinds
# train.forward, so the name must stay bound
from .model import forward  # noqa: F401
from .rng import Rng, permutations

CHECKPOINT_MAGIC = b"LLAB"
CHECKPOINT_VERSION = 1


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
    records: list[EpochRecord] = field(default_factory=list)
    stopped_by_plateau: bool = False

    @property
    def best_train_loss_epoch(self) -> int:
        losses = [r.train_loss for r in self.records]
        return int(np.argmin(losses))

    @property
    def best_test_acc_epoch(self) -> int:
        accs = [r.test_acc for r in self.records]
        return int(np.argmax(accs))


class StackHistory(list):
    """The histories of replicates trained together, in config order.

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


def stack_config(cfgs: Sequence, what: str):
    """The one config of a stack: ``cfgs[0]``, once every config is known
    to differ from it only in ``seed``.  ``what`` names the stack's items
    in the ParameterError raised otherwise."""
    if not cfgs or any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ParameterError(f"{what} trained together must share every setting but the seed")
    return cfgs[0]


@dataclass
class _Replicate:
    """One replicate's own state while it trains in a stack."""

    rng: Rng
    result: ParamVector | DivergenceError  # best weights so far, or what ended the run
    history: TrainHistory = field(default_factory=TrainHistory)
    best_loss: float = np.inf
    prev_loss: float | None = None
    streak: int = 0


def sgd_train(spec: ModelSpec, train: Dataset, test: Dataset, cfgs: Sequence[TrainConfig]):
    """Train one MLP per config, keeping the epoch-end weights with lowest training loss.

    The configs must differ only in ``seed``.  Each replicate stops early
    once its epoch-end training loss changes by less than ``plateau_eps``
    for ``plateau_epochs`` consecutive epochs; otherwise it runs
    ``max_epochs``.  Best-loss selection applies either way.

    Returns ``(results, StackHistory)``: per config its best weights, or
    the DivergenceError that ended it on a non-finite loss.  The record of
    the best epoch holds that epoch's penalized training loss and test
    accuracy, bitwise what ``evaluate`` gives on the returned weights.
    """
    check_dataset(spec, train, "train")
    check_dataset(spec, test, "test")
    cfg = stack_config(cfgs, "replicates")
    layout = spec.layout()
    wd = cfg.weight_decay
    reps = []
    for c in cfgs:
        rng = Rng(c.seed)
        reps.append(_Replicate(rng, he_init(spec, rng)))
    active = list(reps)  # the replicate of each stack row
    theta = ParamVector(layout, np.stack([rep.result.values for rep in reps]))

    for epoch in range(cfg.max_epochs):
        grad = ParamVector(layout, np.empty_like(theta.values))
        finite = np.ones(len(active), dtype=bool)
        lr_t = schedule_lr(epoch, cfg.lr, cfg.schedule)
        # overflow on the way to a non-finite loss is expected and ends
        # the replicate, so the numpy warnings are just noise here
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in epoch_batches(train.n, cfg.batch_size, [rep.rng for rep in active]):
                batch = Batch(train.X[idx], train.y[idx])
                losses, _ = loss_grad(spec, theta, batch, wd, grad)
                # a replicate that diverged rides along until the epoch ends;
                # the rows never mix, so the others are unaffected
                finite &= np.isfinite(losses)
                theta.values -= lr_t * grad.values

            train_eval = evaluate(spec, theta, train, wd)
            test_eval = evaluate(spec, theta, test)
            keep = []
            for i, rep in enumerate(active):
                epoch_loss = float(train_eval.loss[i])
                if not (finite[i] and np.isfinite(epoch_loss)):
                    rep.result = DivergenceError(epoch)
                    continue
                rep.history.records.append(EpochRecord(
                    epoch, epoch_loss, float(train_eval.acc[i]), float(test_eval.loss[i]),
                    float(test_eval.acc[i]), lr_t))

                if epoch_loss < rep.best_loss:
                    rep.best_loss = epoch_loss
                    rep.result = ParamVector(layout, theta.values[i].copy())

                if rep.prev_loss is not None and abs(epoch_loss - rep.prev_loss) < cfg.plateau_eps:
                    rep.streak += 1
                    if rep.streak >= cfg.plateau_epochs:
                        rep.history.stopped_by_plateau = True
                        continue
                else:
                    rep.streak = 0
                rep.prev_loss = epoch_loss
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(active):
            theta = ParamVector(layout, theta.values[keep])
            active = [active[i] for i in keep]

    return [rep.result for rep in reps], StackHistory(rep.history for rep in reps)


# -- checkpoint persistence ---------------------------------------------


def save_checkpoint(theta: ParamVector, spec: ModelSpec, meta: dict, path) -> None:
    """Binary checkpoint: magic, version, spec, raw f64 values, JSON meta."""
    require_matching(spec, theta)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", spec.input_dim)
    blob += struct.pack("<I", len(spec.hidden_widths))
    for w in spec.hidden_widths:
        blob += struct.pack("<I", w)
    blob += struct.pack("<I", spec.num_classes)
    blob += struct.pack("<Q", theta.values.size)
    blob += theta.values.astype("<f8").tobytes()
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise FormatError(f"checkpoint truncated while reading {what}")
    return buf[offset : offset + count], offset + count


def load_checkpoint(path) -> tuple[ParamVector, ModelSpec, dict]:
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _take(buf, 0, 4, "magic")
    if raw != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {raw!r}")
    raw, off = _take(buf, off, 4, "version")
    version = struct.unpack("<I", raw)[0]
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    raw, off = _take(buf, off, 4, "input_dim")
    input_dim = struct.unpack("<I", raw)[0]
    raw, off = _take(buf, off, 4, "hidden count")
    n_hidden = struct.unpack("<I", raw)[0]
    widths = []
    for i in range(n_hidden):
        raw, off = _take(buf, off, 4, f"hidden width {i}")
        widths.append(struct.unpack("<I", raw)[0])
    raw, off = _take(buf, off, 4, "num_classes")
    num_classes = struct.unpack("<I", raw)[0]
    spec = ModelSpec(input_dim=input_dim, hidden_widths=tuple(widths), num_classes=num_classes)
    raw, off = _take(buf, off, 8, "parameter count")
    count = struct.unpack("<Q", raw)[0]
    if count != spec.param_count:
        raise FormatError(f"parameter count {count} does not match spec ({spec.param_count})")
    raw, off = _take(buf, off, 8 * count, "parameter values")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    raw, off = _take(buf, off, 4, "meta length")
    meta_len = struct.unpack("<I", raw)[0]
    raw, off = _take(buf, off, meta_len, "meta")
    meta = json.loads(raw.decode("utf-8"))
    return ParamVector(spec.layout(), values), spec, meta
