"""Scalar curvature summaries: dominant Hessian eigenvalue and trace.

Both estimators ride on the exact Hessian-vector product and share one
frozen batch per measured model, so the two numbers describe the same
local loss surface.  Each constructs one ``HessianOperator`` (the
primal passes, once) and applies it through the module-level ``hvp``,
one call per iteration or probe.  Stopping compares consecutive
iterates against a relative tolerance.

Hutchinson draws the Rademacher signs of ``PROBE_CHUNK`` probes in one
``rademacher`` call, consecutive stretches of one stream, so each probe
gets the signs a call per probe would give and the draw reaches the
lanes of ``rng.raw_outputs`` even when one probe is shorter than
``rng.CROSSOVER``.  The generator is local to the call, so the signs
drawn past an early stop change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import ParameterError
from .model import Batch, HessianOperator, ModelSpec, ParamVector, hvp
from .rng import Rng

PROBE_CHUNK = 8  # Hutchinson probes whose signs are drawn in one call


@dataclass(frozen=True)
class CurvatureConfig:
    max_iter: int = 100
    rtol: float = 1e-3
    metric_batch: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")
        if self.rtol <= 0:
            raise ParameterError("rtol must be > 0")
        if self.metric_batch < 1:
            raise ParameterError("metric_batch must be >= 1")


@dataclass
class PowerIterResult:
    value: float
    iterations: int
    degenerate: bool = False


@dataclass
class TraceResult:
    value: float
    probes: int


def draw_metric_batch(ds: Dataset, cfg: CurvatureConfig) -> Batch:
    """One batch of min(metric_batch, n) rows, frozen for both metrics."""
    size = min(cfg.metric_batch, ds.n)
    idx = Rng(cfg.seed).split("metric_batch").choose(ds.n, size)
    return Batch(ds.X[idx], ds.y[idx])


def _rel_change(current: float, previous: float) -> float:
    return abs(current - previous) / (abs(previous) + 1e-12)


def top_eigenvalue(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
    cfg: CurvatureConfig,
) -> PowerIterResult:
    """Dominant-magnitude Hessian eigenvalue by power iteration.

    Returns the signed Rayleigh quotient; an exactly-zero product is
    reported as value 0 with the degenerate flag set.
    """
    op = HessianOperator(spec, theta, batch, weight_decay)
    rng = Rng(cfg.seed).split("power_iteration")
    v = rng.normals(spec.param_count)
    v /= np.linalg.norm(v)
    work = ParamVector(spec.layout(), v)

    prev = None
    lam = 0.0
    for it in range(1, cfg.max_iter + 1):
        hv = hvp(spec, op, batch, weight_decay, work).values
        norm = float(np.linalg.norm(hv))
        if norm == 0.0:
            return PowerIterResult(value=0.0, iterations=it, degenerate=True)
        lam = float(work.values @ hv)
        work = ParamVector(spec.layout(), hv / norm)
        if prev is not None and _rel_change(lam, prev) < cfg.rtol:
            return PowerIterResult(value=lam, iterations=it)
        prev = lam
    return PowerIterResult(value=lam, iterations=cfg.max_iter)


def trace_hutchinson(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
    cfg: CurvatureConfig,
) -> TraceResult:
    """Hessian trace as the running mean of z^T H z over Rademacher probes.

    Probe k's signs are outputs ``(k-1)P`` to ``kP - 1`` of the
    ``"hutchinson"`` stream, drawn ``PROBE_CHUNK`` probes at a time.
    """
    op = HessianOperator(spec, theta, batch, weight_decay)
    rng = Rng(cfg.seed).split("hutchinson")
    p = spec.param_count
    total = 0.0
    mean_prev = None
    mean = 0.0
    for k in range(1, cfg.max_iter + 1):
        row = (k - 1) % PROBE_CHUNK
        if row == 0:
            signs = rng.rademacher(min(PROBE_CHUNK, cfg.max_iter - k + 1) * p).reshape(-1, p)
        z = ParamVector(spec.layout(), signs[row])
        hz = hvp(spec, op, batch, weight_decay, z).values
        total += float(z.values @ hz)
        mean = total / k
        if mean_prev is not None and _rel_change(mean, mean_prev) < cfg.rtol:
            return TraceResult(value=mean, probes=k)
        mean_prev = mean
    return TraceResult(value=mean, probes=cfg.max_iter)
