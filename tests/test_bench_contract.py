"""The names and signatures the benchmark in ``perfbench/`` relies on.

The benchmark traces a sweep by rebinding module-level names and reading
the histories ``sgd_train`` returns, checks raw-numpy floors against
``loss_grad`` and ``hvp``, counts the estimators' Hessian applications
through ``curvature.hvp``, builds a dense reference with
``exact_hessian`` and writes its own sweep configs.  A change to the
package that breaks any of these fails here.  The benchmark's files are
only read, never changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from losslab import curvature, sweep
from losslab.config import parse_grid, parse_phase
from losslab.model import exact_hessian
from losslab.sweep import results_to_csv, run_sweep

from test_sweep import tiny_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def floors():
    return load("floors")


def test_trace_points_resolve():
    tracing = load("tracing")
    for owner, attr, name in tracing.TRACE_POINTS + tracing.CAPTURE_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_traced_sweep_matches_untraced_and_counts_every_epoch(monkeypatch):
    # the traced run reads the histories sgd_train returns, so a change to
    # its return shape would otherwise fail only in the benchmark
    untraced, _ = run_sweep(tiny_grid(), workers=1)
    histories = []
    sgd_train = sweep.sgd_train

    def recording(*args):
        result = sgd_train(*args)
        histories.extend(result[1])
        return result

    monkeypatch.setattr(sweep, "sgd_train", recording)
    tracer = load("tracing").Tracer()
    with tracer.patched():
        traced, _ = run_sweep(tiny_grid(), workers=1)
    assert results_to_csv(traced) == results_to_csv(untraced)
    assert len(histories) == sum(cell.n_replicates for cell in traced)
    assert tracer.counts["train.epochs"] == sum(len(h.records) for h in histories) > 0


def test_the_sweep_measures_through_the_names_the_benchmark_captures():
    # the accuracy check reads one estimate per measured replicate, both
    # estimators on one batch; a stage that bypassed sweep's names would
    # leave it nothing to check
    tracing = load("tracing")
    tracer = tracing.Tracer()
    with tracer.patched(tracing.CAPTURE_POINTS):
        cells, _ = run_sweep(tiny_grid(), workers=1)
    measured = [r for cell in cells for r in cell.replicates if r.converged]
    assert len(tracer.estimates) == len(measured) > 0
    assert [(e["lambda_max"], e["trace"]) for e in tracer.estimates] == [
        (r.lambda_max, r.hessian_trace) for r in measured]


@pytest.mark.parametrize("kind", ["model.loss_grad", "model.hvp"])
def test_floors_agree_with_the_package(floors, kind):
    floors.check(floors.Problem((3, 5, 4), 16), kind)


def test_exact_hessian_takes_four_positional_arguments(floors):
    p = floors.Problem((3, 5, 4), 16)
    h = exact_hessian(p.spec, p.theta, p.batch, floors.WEIGHT_DECAY)
    assert h.shape == (p.spec.param_count,) * 2
    assert np.allclose(h, h.T, rtol=0.0, atol=1e-12)


def test_estimators_apply_the_hessian_through_curvature_hvp(floors):
    # the traced run divides by the model.hvp calls it sees, so every
    # application has to go through the module-level name it rebinds
    p = floors.Problem((3, 5, 4), 16)
    cfg = curvature.CurvatureConfig(seed=4)
    tracer = load("tracing").Tracer()
    with tracer.patched():
        eig = curvature.top_eigenvalue(p.spec, p.theta, p.batch, floors.WEIGHT_DECAY, cfg)
        tr = curvature.trace_hutchinson(p.spec, p.theta, p.batch, floors.WEIGHT_DECAY, cfg)
    calls = tracer.summary()["model.hvp"]["calls"]
    assert calls == eig.iterations + tr.probes
    assert tracer.shapes[("model.hvp", p.spec.layer_dims, p.batch.size)] == calls


def test_workload_configs_parse():
    workloads = load("workloads")
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, 1)
        grid = parse_grid(cfg)
        assert len(grid.load_axis.values) * len(grid.temp_axis.values) == workloads.cell_count(cfg)
        assert parse_phase(cfg).loss_converged == cfg["phase"]["loss_converged"]
