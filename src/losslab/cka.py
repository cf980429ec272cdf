"""Linear centered kernel alignment between softmax outputs of two models.

The covariance is ``tr(X X^T H Y Y^T H) / (m-1)^2`` with the centering
matrix ``H = I - (1/m) 11^T``; it is computed here by centering columns
and taking ``||Xc^T Yc||_F^2 / (m-1)^2``, which is the same quantity
without materializing any m-by-m matrix (asserted against the literal
formula in tests).

The forward over m probes holds every hidden activation, O(m x width)
memory, so the softmax outputs are computed in row blocks: up to
``WHOLE_ROWS`` probes as one block, larger sets in ``BLOCK_ROWS``-row
blocks whose logits fill one ``(m, C)`` array.  A block is never one row:
numpy sends a one-row matmul to gemv, which rounds differently from gemm,
so a one-row tail joins the block before it.  Each block is a call of the
module-level ``forward``.  A matmul's bits can depend on its row count:
on the sweep's nets (width 16-32, 4 classes) a block's rows are bitwise
the whole forward's, but on some other nets (10 or 12 classes after a
width-32 layer, for one) a set of more than ``WHOLE_ROWS`` probes can
differ from the whole forward in its last bits.
"""

from __future__ import annotations

import numpy as np

from .datasets import ProbeSet
from .errors import DegenerateOutputError, DimensionError
from .model import ModelSpec, ParamVector, forward, softmax


WHOLE_ROWS = 1024
BLOCK_ROWS = 512


def row_blocks(m: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` row ranges ``softmax_outputs`` runs, none of one row unless m is 1."""
    if m <= WHOLE_ROWS:
        return [(0, m)]
    edges = [*range(0, m, BLOCK_ROWS), m]
    if edges[-1] - edges[-2] == 1:  # a one-row tail joins the block before it
        del edges[-2]
    return list(zip(edges, edges[1:]))


def softmax_outputs(spec: ModelSpec, theta: ParamVector, probes: ProbeSet) -> np.ndarray:
    """Row-wise softmax probabilities of the model on the probe inputs, forward in row blocks."""
    X = probes.X
    logits = np.empty((X.shape[0], spec.num_classes))
    for start, stop in row_blocks(X.shape[0]):
        logits[start:stop] = forward(spec, theta, X[start:stop])
    return softmax(logits)


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
