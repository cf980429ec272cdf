import numpy as np
import pytest

from losslab.curvature import (
    PROBE_CHUNK,
    CurvatureConfig,
    draw_metric_batch,
    top_eigenvalue,
    trace_hutchinson,
)
from losslab.datasets import gen_blobs
from losslab.errors import ParameterError
from losslab.model import Batch, ModelSpec, exact_hessian, he_init, hvp, ParamVector
from losslab.rng import CROSSOVER, Rng

from conftest import penalty_only_instance


def small_instance(seed=0, widths=(5,), d=3, c=4, batch=16):
    # 3 -> 5 -> 4 has 44 parameters
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    dr = r.split("data")
    x = dr.normals(batch * d).reshape(batch, d)
    y = np.array([dr.integer(c) for _ in range(batch)], dtype=np.int64)
    return spec, theta, Batch(x, y)


def dominant_eig(h):
    vals = np.linalg.eigvalsh(0.5 * (h + h.T))
    return vals[np.argmax(np.abs(vals))]


def test_isotropic_hessian_exact():
    # the data term's Hessian is exactly zero, so H = 2 * lam * I
    spec, theta, batch = penalty_only_instance(c=4, batch=16)
    lam = 0.1
    cfg = CurvatureConfig(seed=3)
    res = top_eigenvalue(spec, theta, batch, lam, cfg)
    assert abs(res.value - 0.2) < 1e-9
    tr = trace_hutchinson(spec, theta, batch, lam, cfg)
    # every probe hits exactly 2*lam*P, so the mean settles at probe two
    assert tr.probes == 2
    assert abs(tr.value - 0.2 * spec.param_count) < 1e-9


def test_power_iteration_matches_dense_eigensolver():
    for seed in range(5):
        spec, theta, batch = small_instance(seed=seed)
        wd = 5e-4
        h = exact_hessian(spec, theta, batch, wd)
        expected = dominant_eig(h)
        cfg = CurvatureConfig(max_iter=5000, rtol=1e-7, seed=seed)
        res = top_eigenvalue(spec, theta, batch, wd, cfg)
        assert abs(res.value - expected) / abs(expected) < 1e-3, seed


def test_power_iteration_deterministic():
    spec, theta, batch = small_instance(seed=7)
    cfg = CurvatureConfig(seed=11)
    a = top_eigenvalue(spec, theta, batch, 1e-3, cfg)
    b = top_eigenvalue(spec, theta, batch, 1e-3, cfg)
    assert (a.value, a.iterations) == (b.value, b.iterations)


def test_power_iteration_degenerate_zero_hessian():
    # zero weight decay on a net whose data term is exactly zero gives an
    # exactly-zero Hessian
    spec, theta, batch = penalty_only_instance(c=4, batch=16)
    res = top_eigenvalue(spec, theta, batch, 0.0, CurvatureConfig(seed=1))
    assert res.degenerate
    assert res.value == 0.0


def test_hutchinson_probe_values_match_dense_quadratic_form():
    spec, theta, batch = small_instance(seed=9)
    wd = 1e-3
    h = exact_hessian(spec, theta, batch, wd)
    rng = Rng(123)
    for _ in range(10):
        z = rng.rademacher(spec.param_count)
        via_hvp = float(z @ hvp(spec, theta, batch, wd, ParamVector(spec.layout(), z)).values)
        dense = float(z @ h @ z)
        assert abs(via_hvp - dense) / max(abs(dense), 1e-12) < 1e-8


def test_hutchinson_converges_to_exact_trace():
    # wd shifts every probe by exactly 2*wd*P without changing probe
    # variance, keeping per-probe SD ~2% of the trace; the 5% tolerance
    # then holds wherever the consecutive-mean rule stops
    spec, theta, batch = small_instance(seed=13)
    wd = 1.5
    exact = float(np.trace(exact_hessian(spec, theta, batch, wd)))
    cfg = CurvatureConfig(max_iter=5000, rtol=1e-4, seed=17)
    res = trace_hutchinson(spec, theta, batch, wd, cfg)
    assert abs(res.value - exact) / abs(exact) < 0.05


def test_hutchinson_unbiased():
    spec, theta, batch = small_instance(seed=19)
    wd = 1e-3
    exact = float(np.trace(exact_hessian(spec, theta, batch, wd)))
    estimates = []
    for run in range(200):
        cfg = CurvatureConfig(max_iter=100, rtol=1e-300, seed=1000 + run)
        res = trace_hutchinson(spec, theta, batch, wd, cfg)
        assert res.probes == 100
        estimates.append(res.value)
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - exact) <= 3.0 * se


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
    work = ParamVector(spec.layout(), v)
    values = []
    for _ in range(30):
        hv = hvp(spec, theta, batch, wd, work).values
        values.append(float(work.values @ hv))
        work = ParamVector(spec.layout(), hv / np.linalg.norm(hv))
    diffs = np.diff(values)
    assert np.all(diffs > -1e-10)


def test_config_validation():
    with pytest.raises(ParameterError):
        CurvatureConfig(max_iter=0)
    with pytest.raises(ParameterError):
        CurvatureConfig(rtol=0.0)


def test_estimators_match_pinned_values():
    # pinned before the Hessian operator replaced hvp's per-call primal
    # passes; values are exact float64 bit patterns
    spec, theta, batch = small_instance(seed=5, widths=(16, 16), d=8, c=4, batch=1000)
    cfg = CurvatureConfig(seed=2)
    eig = top_eigenvalue(spec, theta, batch, 5e-4, cfg)
    tr = trace_hutchinson(spec, theta, batch, 5e-4, cfg)
    assert (eig.value.hex(), eig.iterations, eig.degenerate) == ("0x1.4f0843b30dd1ap+2", 9, False)
    assert (tr.value.hex(), tr.probes) == ("0x1.5aee43762f2e5p+4", 22)


def test_hutchinson_pinned_where_probes_are_shorter_than_the_crossover():
    # P = 212 is below rng.CROSSOVER, so one probe's signs alone would come
    # from the scalar loop; the run stops at probe 13, inside the second
    # chunk of signs.  Pinned before signs were drawn in chunks.
    spec, theta, batch = small_instance(seed=0, widths=(16,), d=8, c=4, batch=200)
    assert spec.param_count < CROSSOVER < PROBE_CHUNK * spec.param_count
    tr = trace_hutchinson(spec, theta, batch, 5e-4, CurvatureConfig(seed=2))
    assert tr.probes % PROBE_CHUNK != 0
    assert (tr.value.hex(), tr.probes) == ("0x1.4350e77deb5e2p+3", 13)
