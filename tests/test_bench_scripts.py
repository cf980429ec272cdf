"""Smoke test of the two-tree benchmark scripts in ``benchmarks/``.

Each script's ``measure`` must still reach every name it times; a metric
that reads ``None`` or NaN would mean it fell back to some other path.
"""

import importlib.util
import math
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("name", ["bench_rng", "bench_hessian", "bench_startup"])
def test_measure_reports_a_finite_number_for_every_metric(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # the others import bench_rng
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPS", 2)
    metrics = module.measure()
    assert metrics
    bad = {k: v for k, v in metrics.items()
           if not isinstance(v, float) or not math.isfinite(v)}
    assert not bad, bad


@pytest.mark.parametrize("given,expected", [
    ({}, "1"),
    ({"OMP_NUM_THREADS": "2"}, None),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
])
def test_each_side_runs_one_blas_thread_unless_the_caller_set_a_count(given, expected,
                                                                        monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_rng

    for var in bench_rng.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    for var, value in given.items():
        monkeypatch.setenv(var, value)
    env = bench_rng.side_env(Path("src"))
    assert env["PYTHONPATH"] == "src"
    assert env.get("OPENBLAS_NUM_THREADS") == expected
    if not given:
        assert all(env[var] == "1" for var in bench_rng.BLAS_THREAD_VARIABLES)
