"""Phase classification on hand-built rows, independent of any sweep."""

import pytest

from losslab import cli
from losslab.phases import PhaseThresholds, label_rows
from losslab.sweep import read_results_csv, rows_to_csv

THRESHOLDS = PhaseThresholds(eps_mc=2.0, sharp_quantile=0.5, tau_cka=0.9)


def row(trace=1.0, beta=0.0, mu=0.5, n_converged=2, load=0.0):
    """One results row with the columns the classifier reads."""
    return {
        "load_kind": "width", "load_value": load, "temp_kind": "batch_size", "temp_value": 4.0,
        "n_replicates": 2, "n_converged": n_converged, "train_loss_mean": 0.1,
        "hessian_trace_mean": trace, "beta_hat": beta, "mu_hat": mu,
    }


def test_no_converged_replicate_is_nc():
    rows = [row(trace=1.0), row(trace=2.0, n_converged=0)]
    assert label_rows(rows, THRESHOLDS)[1] == "NC"


@pytest.mark.parametrize("missing", ["hessian_trace_mean", "beta_hat", "mu_hat"])
def test_missing_metric_is_nc(missing):
    rows = [row(trace=1.0), row(trace=2.0)]
    rows[1][missing] = None
    assert label_rows(rows, THRESHOLDS)[1] == "NC"


@pytest.mark.parametrize("quantile,sharp", [(0.5, [False, False, True, True]),
                                            (0.25, [False, True, True, True])])
def test_sharp_flat_split_at_quantile_of_converged_traces(quantile, sharp):
    thresholds = PhaseThresholds(sharp_quantile=quantile)
    rows = [row(trace=t) for t in (1.0, 2.0, 3.0, 4.0)]
    # a non-converged cell's trace does not move the threshold
    rows.append(row(trace=100.0, n_converged=0))
    labels = label_rows(rows, thresholds)
    assert [label == "II" for label in labels[:4]] == sharp
    assert labels[4] == "NC"


@pytest.mark.parametrize("beta,poor", [(-2.01, True), (-2.0, False), (0.0, False), (5.0, False)])
def test_poor_when_beta_below_minus_eps_mc(beta, poor):
    rows = [row(trace=1.0, beta=beta), row(trace=2.0)]
    assert label_rows(rows, THRESHOLDS)[0] == ("III" if poor else "IV-A")


@pytest.mark.parametrize("sharp,beta,mu,label", [
    (True, -3.0, 0.5, "I"),
    (True, 0.0, 0.5, "II"),
    (True, 0.0, 0.95, "II"),
    (False, -3.0, 0.95, "III"),
    (False, 0.0, 0.5, "IV-A"),
    (False, 0.0, 0.9, "IV-B"),
    (False, 0.0, 0.95, "IV-B"),
])
def test_phase_mapping(sharp, beta, mu, label):
    # the threshold is the median of the traces 1 and 3, so 3 is sharp and 1 flat
    probe = row(trace=3.0 if sharp else 1.0, beta=beta, mu=mu)
    other = row(trace=1.0 if sharp else 3.0)
    assert label_rows([probe, other], THRESHOLDS)[0] == label


def test_no_converged_rows_label_nc():
    assert label_rows([row(n_converged=0), row(n_converged=0)], THRESHOLDS) == ["NC", "NC"]


def test_phase_command_without_converged_rows_labels_nc(tmp_path, capsys):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(rows_to_csv([row(n_converged=0), row(n_converged=0, load=1.0)]))
    code = cli.main(["phase", "--csv", str(csv_path), "--out", str(tmp_path / "phases.csv")])
    assert code == 0
    assert '{"labels": {"NC": 2}}' in capsys.readouterr().out
    assert [r["phase_label"] for r in read_results_csv(tmp_path / "phases.csv")] == ["NC", "NC"]


def test_converged_rows_without_train_loss_still_label(tmp_path):
    blank = row(trace=1.0)
    blank["train_loss_mean"] = None
    assert label_rows([blank], THRESHOLDS) == ["IV-A"]
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(rows_to_csv([blank]))
    assert cli.main(["phase", "--csv", str(csv_path), "--out", str(tmp_path / "phases.csv")]) == 0
