"""Scalar curvature summaries: dominant Hessian eigenvalue and trace.

Both read one frozen batch per measured model and describe the Hessian
of ``mean_CE + wd * ||theta||^2`` with the ReLU masks held fixed.  The
trace is exact: ``model.HessianOperator.trace``.

lambda_max is Lanczos with full reorthogonalization, every product
through the module-level ``hvp``.  For a Ritz pair ``(theta_i, s_i)`` of
the k-step tridiagonal, ``beta_k |s_i[k-1]|`` bounds the distance from
``theta_i`` to an eigenvalue of the symmetric H.  Lanczos stops when
that bound for the Ritz value of largest magnitude is at most
``rtol * |theta_i|`` (always when ``beta_k`` is 0) or after
``min(max_iter, P)`` products, so ``max_iter`` caps the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import ParameterError
from .model import Batch, HessianOperator, ModelSpec, ParamVector, hvp
from .rng import Rng


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
class LanczosResult:
    value: float
    iterations: int  # Hessian products used
    residual: float  # |value - nearest eigenvalue of H| is at most this
    degenerate: bool = False


@dataclass
class TraceResult:
    value: float
    probes: int  # Hessian products used


def draw_metric_batch(ds: Dataset, cfg: CurvatureConfig) -> Batch:
    """One batch of min(metric_batch, n) rows, frozen for both metrics."""
    size = min(cfg.metric_batch, ds.n)
    idx = Rng(cfg.seed).split("metric_batch").choose(ds.n, size)
    return Batch(ds.X[idx], ds.y[idx])


def top_eigenvalue(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
    cfg: CurvatureConfig,
) -> LanczosResult:
    """Dominant-magnitude Hessian eigenvalue by Lanczos, with its residual bound.

    Starts from the ``"power_iteration"`` stream's normals and returns
    the signed Ritz value of largest magnitude.  An exactly-zero Hessian
    is reported as value 0 with the degenerate flag set.
    """
    op = HessianOperator(spec, theta, batch, weight_decay)
    steps = min(cfg.max_iter, spec.param_count)
    basis = np.empty((steps, spec.param_count))  # the orthonormal Lanczos vectors, by row
    tri = np.zeros((steps, steps))
    start = Rng(cfg.seed).split("power_iteration").normals(spec.param_count)
    basis[0] = start / np.linalg.norm(start)
    for k in range(1, steps + 1):
        w = hvp(spec, op, batch, weight_decay, ParamVector(op.layout, basis[k - 1])).values
        tri[k - 1, k - 1] = basis[k - 1] @ w
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal to rounding
            w -= (basis[:k] @ w) @ basis[:k]
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[:k, :k])
        top = np.argmax(np.abs(ritz))
        value, residual = float(ritz[top]), beta * abs(float(vecs[k - 1, top]))
        if residual <= cfg.rtol * abs(value) or k == steps:  # beta 0 gives residual 0
            return LanczosResult(value, k, residual, degenerate=value == 0.0)
        basis[k] = w / beta
        tri[k - 1, k] = tri[k, k - 1] = beta


def trace_hutchinson(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
    cfg: CurvatureConfig,
) -> TraceResult:
    """The exact Hessian trace, ``HessianOperator.trace``.

    Exact, not a Hutchinson estimate: the name stays because the
    benchmark's tracer rebinds ``sweep.trace_hutchinson``.  ``cfg`` is
    not read; ``probes`` is 0, as no Hessian product is used.
    """
    return TraceResult(HessianOperator(spec, theta, batch, weight_decay).trace(), probes=0)
