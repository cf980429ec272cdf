"""Raw-numpy floors for ``loss_grad`` and ``hvp``.

A floor is the same arithmetic as ``losslab.model.loss_grad`` /
``losslab.model.hvp`` written inline, with the per-layer weight views
and output buffers built once outside the timed loop.  It is what a
call would cost with no Python bookkeeping around the math, so the
ratio of a traced call to its floor is the package's per-call overhead.
Each floor is checked against losslab's own result before it is timed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from losslab.model import Batch, ModelSpec, ParamVector, he_init, hvp, loss_grad
from losslab.rng import Rng

WEIGHT_DECAY = 5e-4
BATCH_SECONDS = 0.02  # target length of one timed batch of calls
BATCHES = 7


class Problem:
    """One (architecture, batch size) instance with buffers laid out once."""

    def __init__(self, dims: tuple, rows: int, seed: int = 0):
        rng = Rng(seed)
        self.spec = ModelSpec(dims[0], tuple(dims[1:-1]), dims[-1])
        self.theta = he_init(self.spec, rng.split("theta"))
        self.v = ParamVector(self.spec.layout(), rng.split("v").normals(self.spec.param_count))
        X = rng.split("X").normals(rows * dims[0]).reshape(rows, dims[0])
        y = np.array([rng.integer(dims[-1]) for _ in range(rows)], dtype=np.int64)
        self.batch = Batch(X, y)
        self.rows = np.arange(rows)
        self.w = self.theta.views()
        self.vw = self.v.views()
        self.out = ParamVector.zeros(self.spec)
        self.ow = self.out.views()


def floor_loss_grad(p: Problem) -> float:
    X, y, n = p.batch.X, p.batch.y, p.batch.X.shape[0]
    last = len(p.w) - 1
    acts, zs, a = [X], [], X
    for l, (w, b) in enumerate(p.w):
        z = a @ w + b
        zs.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
            acts.append(a)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1)
    theta = p.theta.values
    loss = float(np.mean(np.log(s) - shifted[p.rows, y])) + WEIGHT_DECAY * float(theta @ theta)
    g = e / s[:, None]
    g[p.rows, y] -= 1.0
    g /= n
    for l in range(last, -1, -1):
        gw, gb = p.ow[l]
        np.matmul(acts[l].T, g, out=gw)
        g.sum(axis=0, out=gb)
        if l > 0:
            g = (g @ p.w[l][0].T) * (zs[l - 1] > 0.0)
    p.out.values += (2.0 * WEIGHT_DECAY) * theta
    return loss


def floor_hvp(p: Problem) -> None:
    X, y, n = p.batch.X, p.batch.y, p.batch.X.shape[0]
    last = len(p.w) - 1
    acts, zs, a = [X], [], X
    r_acts, ra = [np.zeros_like(X)], np.zeros_like(X)
    for l, ((w, b), (vw, vb)) in enumerate(zip(p.w, p.vw)):
        z = a @ w + b
        rz = ra @ w + a @ vw + vb
        zs.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
            ra = rz * (z > 0.0)
            acts.append(a)
            r_acts.append(ra)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    prob = e / e.sum(axis=1, keepdims=True)
    rg = prob * (rz - (prob * rz).sum(axis=1, keepdims=True)) / n
    prob[p.rows, y] -= 1.0
    g = prob / n
    for l in range(last, -1, -1):
        hw, hb = p.ow[l]
        hw[...] = r_acts[l].T @ g + acts[l].T @ rg
        rg.sum(axis=0, out=hb)
        if l > 0:
            wt = p.w[l][0].T
            mask = zs[l - 1] > 0.0
            rg = (rg @ wt + g @ p.vw[l][0].T) * mask
            g = (g @ wt) * mask
    p.out.values += (2.0 * WEIGHT_DECAY) * p.v.values


def check(p: Problem, kind: str) -> None:
    """Raise if the floor disagrees with losslab on this problem."""
    if kind == "model.loss_grad":
        loss = floor_loss_grad(p)
        ref_loss, ref = loss_grad(p.spec, p.theta, p.batch, WEIGHT_DECAY)
        ok = np.isclose(loss, ref_loss, rtol=1e-12, atol=0.0)
    else:
        floor_hvp(p)
        ref = hvp(p.spec, p.theta, p.batch, WEIGHT_DECAY, p.v)
        ok = True
    if not (ok and np.allclose(p.out.values, ref.values, rtol=1e-10, atol=1e-13)):
        raise ValueError(f"{kind} floor disagrees with losslab at {p.spec.layer_dims}, "
                         f"batch {p.batch.size}")


def time_floor(dims: tuple, rows: int, kind: str) -> float:
    """Median microseconds per floor call, after checking the floor."""
    p = Problem(dims, rows)
    check(p, kind)
    fn = floor_loss_grad if kind == "model.loss_grad" else floor_hvp
    start = time.perf_counter()
    fn(p)
    reps = max(1, int(BATCH_SECONDS / max(time.perf_counter() - start, 1e-7)))
    per_call = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn(p)
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call) * 1e6
