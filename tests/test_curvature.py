import math

import numpy as np
import pytest

from losslab import curvature
from losslab.curvature import CurvatureConfig, draw_metric_batch, top_eigenvalue, trace_hutchinson
from losslab.datasets import gen_blobs
from losslab.errors import DimensionError, ParameterError
from losslab.model import Batch, ModelSpec, exact_hessian, he_init, hvp, ParamVector
from losslab.rng import Rng
from losslab.tridiagonal import dominant_ritz

from conftest import penalty_only_instance, random_instance
from oracles import integer_loop, uniform_loop


def small_instance(seed=0, widths=(5,), d=3, c=4, batch=16):
    # 3 -> 5 -> 4 has 44 parameters
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    dr = r.split("data")
    x = dr.normals(batch * d).reshape(batch, d)
    y = np.array([integer_loop(dr, c) for _ in range(batch)], dtype=np.int64)
    return spec, theta, Batch(x, y)


def dominant_eig(vals):
    return vals[np.argmax(np.abs(vals))]


def test_isotropic_hessian_exact():
    # the data term's Hessian is exactly zero, so H = 2 * lam * I
    spec, theta, batch = penalty_only_instance(c=4, batch=16)
    lam = 0.1
    cfg = CurvatureConfig(seed=3)
    res = top_eigenvalue(spec, theta, batch, lam, cfg)
    assert abs(res.value - 0.2) < 1e-9
    # the start vector is already an eigenvector: one product, zero residual
    assert res.iterations == 1 and res.residual < 1e-15
    tr = trace_hutchinson(spec, theta, batch, lam, cfg)
    assert (tr.value, tr.probes) == (2 * lam * spec.param_count, 0)


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_exact_trace_matches_dense_trace(wd):
    for seed in range(60):
        spec, theta, batch = random_instance(seed)
        exact = float(np.trace(exact_hessian(spec, theta, batch, wd)))
        res = trace_hutchinson(spec, theta, batch, wd, CurvatureConfig())
        assert abs(res.value - exact) <= 1e-12 * abs(exact), seed
        assert res.probes == 0


def test_exact_trace_applies_no_hessian(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact trace called hvp")

    monkeypatch.setattr(curvature, "hvp", refuse)
    spec, theta, batch = small_instance(seed=3, widths=(6, 5))
    trace_hutchinson(spec, theta, batch, 1e-3, CurvatureConfig())


def test_exact_trace_checks_shapes_as_the_operator_does():
    spec, theta, batch = small_instance(seed=4)
    with pytest.raises(DimensionError):
        trace_hutchinson(spec, theta, Batch(batch.X[:, :2], batch.y), 0.0, CurvatureConfig())
    with pytest.raises(DimensionError):
        trace_hutchinson(spec, theta, Batch(batch.X, batch.y + 4), 0.0, CurvatureConfig())
    with pytest.raises(ParameterError):
        trace_hutchinson(spec, theta, Batch(batch.X[:0], batch.y[:0]), 0.0, CurvatureConfig())


def test_power_iteration_matches_dense_eigensolver():
    # Lanczos: the value lies within its residual of an eigenvalue, and at
    # a tight rtol it is the dominant one
    for seed in range(60):
        spec, theta, batch = random_instance(seed)
        wd = 5e-4
        vals = np.linalg.eigvalsh(exact_hessian(spec, theta, batch, wd))
        for cfg in (CurvatureConfig(seed=seed), CurvatureConfig(max_iter=7, seed=seed),
                    CurvatureConfig(rtol=1e-12, seed=seed)):
            res = top_eigenvalue(spec, theta, batch, wd, cfg)
            assert np.min(np.abs(vals - res.value)) <= res.residual + 1e-14 * abs(res.value)
            assert 1 <= res.iterations <= min(cfg.max_iter, spec.param_count)
            if res.iterations < min(cfg.max_iter, spec.param_count):
                assert res.residual <= cfg.rtol * abs(res.value)
        assert abs(res.value - dominant_eig(vals)) <= 1e-9 * abs(res.value), seed


def test_power_iteration_deterministic():
    spec, theta, batch = small_instance(seed=7)
    cfg = CurvatureConfig(seed=11)
    a = top_eigenvalue(spec, theta, batch, 1e-3, cfg)
    b = top_eigenvalue(spec, theta, batch, 1e-3, cfg)
    assert a == b
    assert trace_hutchinson(spec, theta, batch, 1e-3, cfg) == trace_hutchinson(
        spec, theta, batch, 1e-3, cfg)


def test_power_iteration_degenerate_zero_hessian():
    # zero weight decay on a net whose data term is exactly zero gives an
    # exactly-zero Hessian
    spec, theta, batch = penalty_only_instance(c=4, batch=16)
    res = top_eigenvalue(spec, theta, batch, 0.0, CurvatureConfig(seed=1))
    assert (res.value, res.iterations, res.residual) == (0.0, 1, 0.0)
    assert trace_hutchinson(spec, theta, batch, 0.0, CurvatureConfig()).value == 0.0


def test_hutchinson_probe_values_match_dense_quadratic_form():
    spec, theta, batch = small_instance(seed=9)
    wd = 1e-3
    h = exact_hessian(spec, theta, batch, wd)
    rng = Rng(123)
    for _ in range(10):
        z = rng.rademacher(spec.param_count)
        via_hvp = float(z @ hvp(spec, theta, batch, wd, ParamVector(spec, z)).values)
        dense = float(z @ h @ z)
        assert abs(via_hvp - dense) / max(abs(dense), 1e-12) < 1e-8


def test_metric_batch_frozen_and_shared():
    ds = gen_blobs(n=500, num_classes=3, dim=4, spread=0.2, seed=2)
    cfg = CurvatureConfig(metric_batch=200, seed=5)
    a = draw_metric_batch(ds, cfg)
    b = draw_metric_batch(ds, cfg)
    assert a.size == 200
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    small = gen_blobs(n=50, num_classes=3, dim=4, spread=0.2, seed=2)
    assert draw_metric_batch(small, cfg).size == 50


def test_rayleigh_sequence_nondecreasing_for_positive_dominant():
    # a PSD-dominated case: pure penalty Hessian plus tiny data term
    spec, theta, batch = small_instance(seed=21)
    wd = 0.05
    cfg = CurvatureConfig(max_iter=50, rtol=1e-12, seed=3)
    rng = Rng(cfg.seed).split("power_iteration")
    v = rng.normals(spec.param_count)
    v /= np.linalg.norm(v)
    work = ParamVector(spec, v)
    values = []
    for _ in range(30):
        hv = hvp(spec, theta, batch, wd, work).values
        values.append(float(work.values @ hv))
        work = ParamVector(spec, hv / np.linalg.norm(hv))
    diffs = np.diff(values)
    assert np.all(diffs > -1e-10)


def test_config_validation():
    with pytest.raises(ParameterError):
        CurvatureConfig(max_iter=0)
    with pytest.raises(ParameterError):
        CurvatureConfig(rtol=0.0)


def test_estimators_match_pinned_values():
    # Lanczos and the exact trace; values are exact float64 bit patterns
    spec, theta, batch = small_instance(seed=5, widths=(16, 16), d=8, c=4, batch=1000)
    cfg = CurvatureConfig(seed=2)
    eig = top_eigenvalue(spec, theta, batch, 5e-4, cfg)
    tr = trace_hutchinson(spec, theta, batch, 5e-4, cfg)
    assert (eig.value.hex(), eig.iterations, eig.residual.hex()) == (
        "0x1.084e2f03fc27dp+2", 8, "0x1.9f72e7e4faaa1p-9")
    assert (tr.value.hex(), tr.probes) == ("0x1.727f76ac50fd2p+4", 0)


def ritz_chain(alpha, beta):
    """``dominant_ritz`` of T's leading blocks in turn, as Lanczos calls it;
    the (value, |s_k|) of T itself."""
    top, low = -math.inf, math.inf
    for k in range(1, len(alpha) + 1):
        value, last, top, low = dominant_ritz(alpha[:k], beta[:k - 1], top, low)
    return value, last


def eigenvalues_above(alpha, beta, x):
    """How many eigenvalues of the tridiagonal (alpha, beta) exceed the float x, exactly.

    The leading principal minors of xI - T, in integers (every float
    times one power of two), change sign once per eigenvalue above x.
    """
    scale = max(f.as_integer_ratio()[1] for f in (x, *alpha, *beta))

    def exact(f):
        numerator, denominator = f.as_integer_ratio()
        return numerator * (scale // denominator)

    before, minor, changes = 0, 1, 0
    for i, a in enumerate(alpha):
        off = exact(beta[i - 1]) ** 2 if i else 0
        before, minor = minor, (exact(x) - exact(a)) * minor - off * before
        assert minor != 0, "x is an eigenvalue of a leading block"
        changes += (minor < 0) != (before < 0)
    return changes


def assert_matches_eigh(alpha, beta):
    """The helper's Ritz pair against ``np.linalg.eigh``: the same end of the
    spectrum, the value within 8 ulps of ||T||_inf of it and |s_k| within 1e-14.

    eigh's own eigenvalue is more than 8 ulps off on some random
    tridiagonals, so the value is certified by exact eigenvalue counts
    instead of compared with it.
    """
    value, last = ritz_chain(alpha, beta)
    a, b = np.array(alpha), np.array(beta)
    t = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    vals, vecs = np.linalg.eigh(t)
    top = np.argmax(np.abs(vals))
    assert (value < 0) == (vals[top] < 0)
    tol = 8 * math.ulp(float(np.abs(t).sum(axis=1).max()))
    # the smallest eigenvalue of T is minus the largest of -T
    diagonal, end = (alpha, value) if value >= 0 else ([-x for x in alpha], -value)
    assert eigenvalues_above(diagonal, beta, end + tol) == 0
    assert eigenvalues_above(diagonal, beta, end - tol) >= 1
    assert abs(last - abs(vecs[-1, top])) <= 1e-14
    return value, last


def test_ritz_pair_matches_eigh_on_random_tridiagonals():
    r = Rng(24).split("tridiagonals")
    for _ in range(400):
        k = 1 + integer_loop(r, 60)
        scale = 10.0 ** (6 * uniform_loop(r) - 3)
        alpha = [scale * x for x in r.normals(k)]
        beta = [scale * 10.0 ** (7 * u - 6) for u in r.uniforms(k - 1)]
        assert_matches_eigh(alpha, beta)


@pytest.mark.parametrize("cut", [1e-40, 1e-60, 1e-150])
@pytest.mark.parametrize("at", [1, 3, 5])
def test_ritz_pair_of_a_nearly_reducible_tridiagonal(cut, at):
    # the dominant eigenvector lives in the block above the tiny off-diagonal,
    # so |s_k| is about ``cut``: the converged case, where Lanczos must stop
    alpha = [4.0, 3.5, 3.0, 2.5, 2.0, 0.5, -0.3, 0.2, 0.1]
    beta = [0.9, 0.7, 1.1, 0.6, 0.8, 0.4, 0.3, 0.5]
    beta[at] = cut
    _, last = assert_matches_eigh(alpha, beta)
    assert last < 1e-30


@pytest.mark.parametrize("beta", [[1.0], [1.0, 1.0], [0.5, 2.0, 0.25, 1.5]])
def test_ritz_pair_takes_the_negative_end_on_a_tie(beta):
    # a zero diagonal makes the spectrum symmetric about 0
    alpha = [0.0] * (len(beta) + 1)
    value, last = assert_matches_eigh(alpha, beta)
    assert value < 0
    assert ritz_chain([-0.0] * len(alpha), beta) == (value, last)


@pytest.mark.parametrize("alpha", [[2.5], [-0.75], [0.0]])
def test_ritz_pair_of_a_1x1_tridiagonal(alpha):
    value, last = ritz_chain(alpha, [])
    assert (value, math.copysign(1.0, value), last) == (alpha[0], math.copysign(1.0, alpha[0]), 1.0)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_ritz_pair_of_a_zero_matrix(k):
    value, last = ritz_chain([0.0] * k, [0.0] * (k - 1))
    assert (value, math.copysign(1.0, value), last) == (0.0, 1.0, 0.0)
