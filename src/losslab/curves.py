"""Bezier-curve mode connectivity between two trained parameter vectors.

A curve is one ``ParamVector`` whose values are ``(k+1, P)``: row 0 and
row k are the two endpoints, rows 1..k-1 the interior bends.  A point on
it is the Bernstein combination of the rows.  Training draws one t per
minibatch, evaluates the penalized loss at the curve point, and moves
only the bends, with the Bernstein coefficient as the chain-rule factor;
the endpoint rows stay bitwise copies of the two vectors the curve joins.
The ``mc`` statistic compares the endpoint mean of the 0-1 training error
against the largest deviation along the curve: negative means a
barrier, near zero means well-connected, positive means the endpoints
themselves were never at a reasonable optimum.

``train_curve`` builds each replicate pair's curve from its endpoints at
the config's bend degree ``k`` and trains them as one ``(C, k+1, P)``
stack: each step evaluates all C curve points as one ``(C, B, d)``
``loss_grad`` call, with a ``(C, k+1)`` array of Bernstein coefficients.
Each pair keeps its own generator and divergence check, so its curve is
bitwise what it gets in a list of one.  A generator draws an epoch's
shuffle, then that epoch's one t per step as one ``uniforms`` array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import DimensionError, DivergenceError, ParameterError
from .model import Batch, ModelSpec, ParamVector, evaluate, loss_grad, require_matching
from .phases import CurveProfile
from .rng import Rng
from .train import LinearDecay, check_dataset, epoch_batches, schedule_lr

DEFAULT_T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def bernstein(k: int, t: float) -> np.ndarray:
    """The k+1 Bernstein basis coefficients at t."""
    return np.array(
        [math.comb(k, j) * (1.0 - t) ** (k - j) * t**j for j in range(k + 1)]
    )


def curve_point(curve: ParamVector, t: float) -> ParamVector:
    """Bernstein-weighted combination; endpoints are reproduced bit-exactly."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t={t} outside [0, 1]")
    if t in (0.0, 1.0):
        return ParamVector(curve.spec, curve.values[0 if t == 0.0 else -1].copy())
    values = np.empty_like(curve.values[0])
    _combine(bernstein(len(curve.values) - 1, t), curve.values, values)
    return ParamVector(curve.spec, values)


def _combine(coeffs: np.ndarray, controls: np.ndarray, out: np.ndarray) -> None:
    """``out`` = sum over j of ``coeffs[..., j]`` times ``controls[..., j, :]``, added in j order.

    ``coeffs`` is ``(k+1,)`` with ``(k+1, P)`` controls for one curve, or
    ``(C, k+1)`` with ``(C, k+1, P)`` controls for a stack of C curves.
    """
    out[...] = 0.0
    for j in range(coeffs.shape[-1]):
        out += coeffs[..., j, None] * controls[..., j, :]


def init_curve(theta_a: ParamVector, theta_b: ParamVector, k: int = 2) -> ParamVector:
    """The ``(k+1, P)`` curve from ``theta_a`` to ``theta_b`` with its bends on the straight line."""
    require_matching(theta_a.spec, theta_b)
    if theta_a.values.ndim != 1 or theta_b.values.ndim != 1:
        raise DimensionError("a curve joins two single models, not stacks")
    if k < 1:
        raise ParameterError("bend degree k must be >= 1")
    a, b = theta_a.values, theta_b.values
    bends = [a + (j / k) * (b - a) for j in range(1, k)]
    return ParamVector(theta_a.spec, np.stack([a, *bends, b]))


@dataclass(frozen=True)
class CurveTrainConfig:
    epochs: int = 50
    lr: float = 0.01
    schedule: LinearDecay | None = LinearDecay(25, 45, 0.01)
    batch_size: int = 128
    k: int = 2
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.k < 1:
            raise ParameterError("bend degree k must be >= 1")
        if self.lr < 0:
            raise ParameterError("lr must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if 0.0 not in self.t_grid or 1.0 not in self.t_grid:
            raise ParameterError("t_grid must contain both endpoints 0 and 1")
        if any(not 0.0 <= t <= 1.0 for t in self.t_grid):
            raise ParameterError("t_grid values must lie in [0, 1]")


def train_curve(
    spec: ModelSpec,
    ends: Sequence[tuple[ParamVector, ParamVector]],
    ds: Dataset,
    cfg: CurveTrainConfig,
    seeds: Sequence[int],
    weight_decay: float = 0.0,
) -> list:
    """Build the curve joining each ``(theta_a, theta_b)`` pair and train its bends.

    Each curve starts as ``init_curve(theta_a, theta_b, cfg.k)``, its
    bends on the straight line.  One fresh t ~ Uniform[0,1] per
    minibatch; the gradient at gamma(t) reaches bend j scaled by its
    Bernstein coefficient.  The endpoint rows of each trained curve are
    bitwise copies of ``theta_a`` and ``theta_b``.

    The curves train as one stack under ``cfg``, pair i from ``seeds[i]``;
    ``cfg.seed`` is not read.  Returns, per pair, the trained ``(k+1, P)``
    curve or the DivergenceError that ended it on a non-finite loss.
    """
    check_dataset(spec, ds, "curve data")
    if not ends or len(seeds) != len(ends):
        raise ParameterError("train_curve needs at least one pair, and one seed per pair")
    for a, _ in ends:
        require_matching(spec, a)
    k = cfg.k
    rngs = list(map(Rng, seeds))
    results: list = [None] * len(ends)
    active = list(range(len(ends)))  # curve of each stack row
    controls = np.stack([init_curve(a, b, k).values for a, b in ends])  # (C, k+1, P)
    for epoch in range(cfg.epochs if k > 1 else 0):  # k = 1 has no bends to train
        gamma = ParamVector(spec, np.empty_like(controls[:, 0]))
        grad = ParamVector(spec, np.empty_like(gamma.values))
        finite = np.ones(len(active), dtype=bool)
        lr_t = schedule_lr(epoch, cfg.lr, cfg.schedule)
        with np.errstate(over="ignore", invalid="ignore"):
            stack_rngs = [rngs[c] for c in active]
            blocks = epoch_batches(ds.n, cfg.batch_size, stack_rngs)
            # each step's t per curve; Python floats keep bernstein's pow bitwise
            steps_t = zip(*(r.uniforms(len(blocks)).tolist() for r in stack_rngs))
            for idx, ts in zip(blocks, steps_t):
                coeffs = np.array([bernstein(k, t) for t in ts])
                _combine(coeffs, controls, gamma.values)
                batch = Batch(ds.X[idx], ds.y[idx])
                losses, _ = loss_grad(spec, gamma, batch, weight_decay, grad)
                # a diverged curve rides along until the epoch ends; rows never mix
                finite &= np.isfinite(losses)
                controls[:, 1:k] -= (lr_t * coeffs[:, 1:k, None]) * grad.values[:, None]
        if not finite.all():
            for i in np.flatnonzero(~finite):
                results[active[i]] = DivergenceError(epoch)
            controls = controls[finite]
            active = [c for c, ok in zip(active, finite) if ok]
            if not active:
                break
    for i, c in enumerate(active):
        results[c] = ParamVector(spec, controls[i])
    return results


def curve_profile(
    spec: ModelSpec,
    curve: ParamVector,
    ds: Dataset,
    t_grid: tuple[float, ...] = DEFAULT_T_GRID,
) -> CurveProfile:
    errs = []
    ces = []
    for t in sorted(t_grid):
        res = evaluate(spec, curve_point(curve, t), ds)
        errs.append(100.0 - res.acc)
        ces.append(res.loss)
    return CurveProfile(tuple(sorted(t_grid)), errs, ces)


def mode_connectivity(profile: CurveProfile, use: str = "err01") -> float:
    """Endpoint-mean minus the most deviating on-curve value.

    ``use='err01'`` scores the 0-1 error (range [-100, 100]); the
    cross-entropy variant is exposed as an explicitly flagged alternate.
    """
    if use == "err01":
        vals = profile.err01
    elif use == "cross_entropy":
        vals = profile.cross_entropy
    else:
        raise ParameterError("use must be 'err01' or 'cross_entropy'")
    t = profile.t_values
    v0 = vals[t.index(0.0)]
    v1 = vals[t.index(1.0)]
    base = 0.5 * (v0 + v1)
    deviations = [abs(base - v) for v in vals]
    t_star = int(np.argmax(deviations))  # ties resolve to the smallest t
    return base - vals[t_star]
