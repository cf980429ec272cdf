import numpy as np
import pytest

from losslab import curvature
from losslab.curvature import CurvatureConfig, draw_metric_batch, top_eigenvalue, trace_hutchinson
from losslab.datasets import gen_blobs
from losslab.errors import DimensionError, ParameterError
from losslab.model import Batch, ModelSpec, exact_hessian, he_init, hvp, ParamVector
from losslab.rng import Rng

from conftest import penalty_only_instance, random_instance


def small_instance(seed=0, widths=(5,), d=3, c=4, batch=16):
    # 3 -> 5 -> 4 has 44 parameters
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    dr = r.split("data")
    x = dr.normals(batch * d).reshape(batch, d)
    y = np.array([dr.integer(c) for _ in range(batch)], dtype=np.int64)
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
    assert res.degenerate
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
    assert (eig.value.hex(), eig.iterations, eig.residual.hex(), eig.degenerate) == (
        "0x1.084e2f03fc27cp+2", 8, "0x1.9f72e7e4faa23p-9", False)
    assert (tr.value.hex(), tr.probes) == ("0x1.727f76ac50fd2p+4", 0)
