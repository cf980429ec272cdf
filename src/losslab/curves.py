"""Bezier-curve mode connectivity between two trained parameter vectors.

The curve is a Bernstein combination of k+1 control points whose two
endpoints stay frozen; training draws one t per minibatch, evaluates
the penalized loss at the curve point, and moves only the interior
bends with the Bernstein coefficient as the chain-rule factor.  The
``mc`` statistic compares the endpoint mean of the 0-1 training error
against the largest deviation along the curve: negative means a
barrier, near zero means well-connected, positive means the endpoints
themselves were never at a reasonable optimum.

``train_curve`` trains a list of curves, one per replicate pair, as one
stack: each step evaluates all C curve points as one ``(C, B, d)``
``loss_grad`` call, with a ``(C, k+1)`` array of Bernstein coefficients.
Each pair keeps its own generator (shuffle and t draws) and divergence
check, so its curve is bitwise what it gets in a list of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .errors import DivergenceError, ParameterError
from .model import Batch, ModelSpec, ParamVector, loss_grad, require_matching, require_same_layout
from .rng import Rng
from .train import LinearDecay, check_dataset, epoch_batches, evaluate, schedule_lr

DEFAULT_T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class BezierCurve:
    """k+1 control points sharing one layout; controls[0] and controls[-1] are frozen."""

    controls: list[ParamVector]

    def __post_init__(self):
        if len(self.controls) < 2:
            raise ParameterError("a curve needs at least two control points")
        for c in self.controls[1:]:
            require_same_layout(self.controls[0], c)

    @property
    def k(self) -> int:
        return len(self.controls) - 1


def bernstein(k: int, t: float) -> np.ndarray:
    """The k+1 Bernstein basis coefficients at t."""
    return np.array(
        [math.comb(k, j) * (1.0 - t) ** (k - j) * t**j for j in range(k + 1)]
    )


def curve_point(curve: BezierCurve, t: float) -> ParamVector:
    """Bernstein-weighted combination; endpoints are reproduced bit-exactly."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t={t} outside [0, 1]")
    if t == 0.0:
        return curve.controls[0].copy()
    if t == 1.0:
        return curve.controls[-1].copy()
    values = np.empty_like(curve.controls[0].values)
    _combine(bernstein(curve.k, t), [c.values for c in curve.controls], values)
    return ParamVector(curve.controls[0].layout, values)


def _combine(coeffs: np.ndarray, controls: list[np.ndarray], out: np.ndarray) -> None:
    """``out`` = sum over j of ``coeffs[..., j]`` times ``controls[j]``, added in j order.

    ``coeffs`` is ``(k+1,)`` for one curve or ``(C, k+1)`` for a stack of
    C curves whose control points are ``(C, P)`` arrays.
    """
    out[...] = 0.0
    for j, ctrl in enumerate(controls):
        out += coeffs[..., j, None] * ctrl


def init_curve(theta_a: ParamVector, theta_b: ParamVector, k: int = 2) -> BezierCurve:
    """Interior bends placed on the straight line between the endpoints."""
    require_same_layout(theta_a, theta_b)
    if k < 1:
        raise ParameterError("bend degree k must be >= 1")
    controls = [theta_a]
    for j in range(1, k):
        frac = j / k
        controls.append(
            ParamVector(theta_a.layout, theta_a.values + frac * (theta_b.values - theta_a.values))
        )
    controls.append(theta_b)
    return BezierCurve(controls)


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
    curves: Sequence[BezierCurve],
    ds: Dataset,
    cfgs: Sequence[CurveTrainConfig],
    weight_decay: float = 0.0,
) -> list:
    """Minimize the loss along each curve over its interior bends only.

    One fresh t ~ Uniform[0,1] per minibatch; the gradient at gamma(t)
    reaches bend j scaled by its Bernstein coefficient.  Endpoint
    objects are passed through untouched.

    The curves train as one stack, one config each; the configs must
    differ only in ``seed``.  Returns, per curve, the trained curve or the
    DivergenceError that ended it on a non-finite loss.
    """
    check_dataset(spec, ds, "curve data")
    cfg = cfgs[0] if cfgs else None
    if (cfg is None or len(curves) != len(cfgs)
            or any(replace(c, seed=cfg.seed) != cfg for c in cfgs)):
        raise ParameterError("curves trained together need one config each, "
                             "sharing every setting but the seed")
    k = curves[0].k
    for curve in curves:
        require_matching(spec, curve.controls[0])
        if curve.k != k:
            raise ParameterError("curves trained together must share the bend degree")
    results: list = [
        BezierCurve([c.controls[0], *(b.copy() for b in c.controls[1:-1]), c.controls[-1]])
        for c in curves
    ]
    if k == 1:
        return results
    rngs = [Rng(c.seed) for c in cfgs]
    layout = spec.layout()
    active = list(range(len(curves)))  # curve of each stack row
    # controls[j] is control point j of every active curve, one row each
    controls = [np.stack([results[c].controls[j].values for c in active]) for j in range(k + 1)]
    for epoch in range(cfg.epochs):
        gamma = ParamVector(layout, np.empty_like(controls[0]))
        grad = ParamVector(layout, np.empty_like(controls[0]))
        finite = np.ones(len(active), dtype=bool)
        lr_t = schedule_lr(epoch, cfg.lr, cfg.schedule)
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in epoch_batches(ds.n, cfg.batch_size, [rngs[c] for c in active]):
                coeffs = np.array([bernstein(k, rngs[c].uniform()) for c in active])
                _combine(coeffs, controls, gamma.values)
                batch = Batch(ds.X[idx], ds.y[idx])
                losses, _ = loss_grad(spec, gamma, batch, weight_decay, grad)
                # a diverged curve rides along until the epoch ends; rows never mix
                finite &= np.isfinite(losses)
                for j in range(1, k):
                    controls[j] -= (lr_t * coeffs[:, j])[:, None] * grad.values
        keep = []
        for i, c in enumerate(active):
            if finite[i]:
                keep.append(i)
            else:
                results[c] = DivergenceError(epoch)
        if len(keep) < len(active):
            controls = [ctrl[keep] for ctrl in controls]
            active = [active[i] for i in keep]
        if not active:
            break
    for i, c in enumerate(active):
        for j in range(1, k):
            results[c].controls[j].values[...] = controls[j][i]
    return results


@dataclass
class CurveProfile:
    """Training error (percent) and cross-entropy sampled along the curve."""

    t_values: tuple[float, ...]
    err01: list[float]
    cross_entropy: list[float]

    def __post_init__(self):
        if 0.0 not in self.t_values or 1.0 not in self.t_values:
            raise ParameterError("profile must include both endpoints")
        if not (len(self.t_values) == len(self.err01) == len(self.cross_entropy)):
            raise ParameterError("profile arrays must share one length")

    def to_dict(self) -> dict:
        return {
            "t": list(self.t_values),
            "err01": list(self.err01),
            "cross_entropy": list(self.cross_entropy),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CurveProfile":
        """The profile ``to_dict`` wrote; every value must convert with ``float``."""
        return cls(tuple(float(t) for t in d["t"]), [float(v) for v in d["err01"]],
                   [float(v) for v in d["cross_entropy"]])


def curve_profile(
    spec: ModelSpec,
    curve: BezierCurve,
    ds: Dataset,
    t_grid: tuple[float, ...] = DEFAULT_T_GRID,
) -> CurveProfile:
    errs = []
    ces = []
    for t in sorted(t_grid):
        res = evaluate(spec, curve_point(curve, t), ds)
        errs.append(res.err01)
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
