"""Smoke test of the two-tree benchmark scripts in ``benchmarks/``.

Each script's ``measure`` must still reach every name it times; a metric
that reads ``None`` or NaN would mean it fell back to some other path.
"""

import importlib.util
import json
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


def test_compare_trees_alternates_the_first_tree_and_records_each_round(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_rng

    order = []
    readings = {"parent": iter([10.0, 10.0, 10.0, 10.0]), "change": iter([5.0, 20.0, 8.0, 9.0])}

    def run_side(script, src):
        side = "change" if src == bench_rng.SRC else "parent"
        order.append(side)
        return {"t.us": next(readings[side]), "new.us": None if side == "parent" else 1.0}

    monkeypatch.setattr(bench_rng, "run_side", run_side)
    monkeypatch.setattr(bench_rng, "environment", lambda: {})
    out = tmp_path / "bench.json"
    assert bench_rng.main(["--parent", str(tmp_path), "--rounds", "4", "--out", str(out)]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["t.us"]["ratio_rounds"] == [0.5, 2.0, 0.8, 0.9]
    assert metrics["t.us"]["change_lower_rounds"] == 3
    assert metrics["t.us"]["change"] == 8.5
    assert metrics["new.us"]["parent"] is None and metrics["new.us"]["change"] == 1.0
    assert metrics["new.us"]["ratio_rounds"] == [None] * 4
    assert metrics["new.us"]["change_lower_rounds"] == 0
