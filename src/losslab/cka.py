"""Linear centered kernel alignment between softmax outputs of two models.

The covariance is ``tr(X X^T H Y Y^T H) / (m-1)^2`` with the centering
matrix ``H = I - (1/m) 11^T``; it is computed here by centering columns
and taking ``||Xc^T Yc||_F^2 / (m-1)^2``, which is the same quantity
without materializing any m-by-m matrix (asserted against the literal
formula in tests).
"""

from __future__ import annotations

import numpy as np

from .datasets import ProbeSet
from .errors import DegenerateOutputError, DimensionError
from .model import ModelSpec, ParamVector, forward, softmax


def softmax_outputs(spec: ModelSpec, theta: ParamVector, probes: ProbeSet) -> np.ndarray:
    """Row-wise softmax probabilities of the model on the probe inputs."""
    return softmax(forward(spec, theta, probes.X))


def hsic_cov(x: np.ndarray, y: np.ndarray) -> float:
    """Centered cross-covariance statistic between two output matrices."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionError("hsic_cov expects 2-D matrices")
    m = x.shape[0]
    if y.shape[0] != m:
        raise DimensionError(f"row counts differ: {m} vs {y.shape[0]}")
    if m < 2:
        raise DimensionError("hsic_cov needs at least two rows")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cross = xc.T @ yc
    # summing the squares in sorted order makes hsic_cov(x, y) equal
    # hsic_cov(y, x) bit-for-bit (the multiset survives the transpose)
    return float(np.sum(np.sort((cross * cross).ravel()))) / (m - 1) ** 2


def cka(fa: np.ndarray, fb: np.ndarray) -> float:
    """Normalized alignment in [0, 1]; 1 means functionally identical outputs."""
    caa = hsic_cov(fa, fa)
    cbb = hsic_cov(fb, fb)
    if caa <= 0.0 or cbb <= 0.0:
        raise DegenerateOutputError("constant outputs give zero self-covariance")
    return hsic_cov(fa, fb) / np.sqrt(caa * cbb)


def cka_between_models(
    spec: ModelSpec, theta_a: ParamVector, theta_b: ParamVector, probes: ProbeSet
) -> float:
    return cka(softmax_outputs(spec, theta_a, probes), softmax_outputs(spec, theta_b, probes))
