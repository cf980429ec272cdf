import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from losslab.model import Batch, ModelSpec, ParamVector, _forward_trace, he_init
from losslab.rng import Rng

from oracles import integer_loop


@pytest.fixture
def rng():
    return Rng(20240817)


def random_instance(seed, max_hidden_layers=3, max_width=16, max_batch=32,
                    hidden_layers=None, num_classes=None):
    """A random (spec, theta, batch) triple for derivative checks.

    ``hidden_layers`` and ``num_classes``, when given, replace the drawn
    depth and class count.
    """
    r = Rng(seed)
    n_hidden = integer_loop(r, max_hidden_layers + 1) if hidden_layers is None else hidden_layers
    widths = tuple(1 + integer_loop(r, max_width) for _ in range(n_hidden))
    d = 1 + integer_loop(r, 6)
    c = 2 + integer_loop(r, 4) if num_classes is None else num_classes
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    b = 1 + integer_loop(r, max_batch)
    data_rng = r.split("data")
    x = data_rng.normals(b * d).reshape(b, d)
    y = np.array([integer_loop(data_rng, c) for _ in range(b)], dtype=np.int64)
    return spec, theta, Batch(x, y)


def _relu_pattern(spec, values, batch):
    acts, _ = _forward_trace(spec, ParamVector(spec, values), batch.X)
    return [a > 0.0 for a in acts[1:]]


def _patterns_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def fd_grad_applicable(spec, theta, batch, h):
    """True when no coordinate-wise +-h step flips a ReLU unit.

    Central differences are only a valid gradient oracle on a kink-free
    neighborhood; across a ReLU sign change the loss stays continuous
    but its derivative jumps, so the oracle itself is wrong there.
    """
    base = _relu_pattern(spec, theta.values, batch)
    for i in range(theta.values.size):
        for sign in (h, -h):
            stepped = theta.values.copy()
            stepped[i] += sign
            if not _patterns_equal(base, _relu_pattern(spec, stepped, batch)):
                return False
    return True


def fd_hvp_applicable(spec, theta, batch, v, h):
    """True when the +-h*v segment stays on one side of every ReLU kink."""
    lo = _relu_pattern(spec, theta.values - h * v, batch)
    hi = _relu_pattern(spec, theta.values + h * v, batch)
    return _patterns_equal(lo, hi)


def smooth_grad_instance(start_seed, h, **kw):
    """First seeded random instance where the FD gradient oracle applies."""
    seed = start_seed
    while True:
        spec, theta, batch = random_instance(seed, **kw)
        if len(spec.hidden_widths) == 0 or fd_grad_applicable(spec, theta, batch, h):
            return spec, theta, batch
        seed += 1


def smooth_hvp_instance(start_seed, h, direction_seed=0, **kw):
    """Seeded (instance, unit direction) pair clean for the FD-of-gradients oracle."""
    seed = start_seed
    while True:
        spec, theta, batch = random_instance(seed, **kw)
        v = Rng(seed * 1_000_003 + direction_seed).normals(spec.param_count)
        v /= np.linalg.norm(v)
        if len(spec.hidden_widths) == 0 or fd_hvp_applicable(spec, theta, batch, v, h):
            return spec, theta, batch, v
        seed += 1


def penalty_only_instance(seed=0, widths=(5,), d=3, c=3, batch=8):
    """A (spec, theta, batch) triple whose data term is exactly zero.

    Weights come from ``he_init``.  Hidden biases of -1e4 switch every
    ReLU off, and an output bias of ``[1e4, 0, ...]`` with every label 0
    puts all softmax mass on the true class (``exp(-1e4)`` underflows to
    0).  The cross-entropy, its gradient and its Hessian are then exactly
    0, so the loss is the penalty ``wd * ||theta||^2`` alone: gradient
    ``2 * wd * theta`` and Hessian ``2 * wd * I``.
    """
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    views = theta.views()
    for _, b in views[:-1]:
        b[...] = -1e4
    views[-1][1][...] = 0.0
    views[-1][1][0] = 1e4
    x = r.split("data").normals(batch * d).reshape(batch, d)
    return spec, theta, Batch(x, np.zeros(batch, dtype=np.int64))
