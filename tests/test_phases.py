"""Phase classification on hand-built rows, independent of any sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import cli
from losslab.phases import PhaseThresholds, _quantile, label_rows, read_results_csv, rows_to_csv

THRESHOLDS = PhaseThresholds(eps_mc=2.0, sharp_quantile=0.5, tau_cka=0.9)

# The width-4, batch-128 cell of a 2x2 quickstart-derived sweep at train.lr 1e30
# (n_train 200, 2 epochs, 2 replicates): both replicates' weights blew up while
# their loss stayed finite, so the cell counts 2 converged replicates.
BLOWN_UP_ROW = ("width,4,batch_size,128,2,2,2.466554864e+115,1.170952644e+115,13.5,16.26345597,"
                "0.7189964369,0.02112235173,0.056,0,-12.25,0,0.5784262597,0,2.619247783e+59,0,"
                "0.5784262597,-12.25,")


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


@pytest.mark.parametrize("column", ["hessian_trace_mean", "beta_hat", "mu_hat"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_metric_is_nc(column, value):
    rows = [row(trace=1.0), row(trace=2.0)]
    rows[1][column] = value
    assert label_rows(rows, THRESHOLDS)[1] == "NC"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", range(5))
def test_a_non_finite_trace_leaves_the_other_labels(position, value):
    # traces 1-4 split at 2.5; a non-finite trace, wherever it sits, must
    # neither make the threshold nan nor move it
    rows = [row(trace=t, mu=0.95, load=t) for t in (1.0, 2.0, 3.0, 4.0)]
    expected = label_rows(rows, THRESHOLDS)
    assert expected == ["IV-B", "IV-B", "II", "II"]
    rows.insert(position, row(trace=value, mu=0.95, load=9.0))
    expected.insert(position, "NC")
    assert label_rows(rows, THRESHOLDS) == expected


@pytest.mark.parametrize("value", [None, float("nan"), float("inf")])
@pytest.mark.parametrize("column", ["beta_hat", "mu_hat"])
def test_an_nc_row_with_a_finite_trace_leaves_the_threshold(column, value):
    # traces 1-4 split at 2.5; a converged row of trace 100 that is NC for
    # its beta_hat or mu_hat must not move the split to 3
    rows = [row(trace=t, beta=-5.0 if t > 2 else 0.0, mu=0.95, load=t)
            for t in (1.0, 2.0, 3.0, 4.0)]
    expected = label_rows(rows, THRESHOLDS)
    assert expected == ["IV-B", "IV-B", "I", "I"]
    rows.append(row(trace=100.0, mu=0.95, load=9.0))
    rows[-1][column] = value
    assert label_rows(rows, THRESHOLDS) == expected + ["NC"]


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


def test_cell_whose_train_loss_exceeds_loss_converged_is_nc(tmp_path):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(rows_to_csv([]) + BLOWN_UP_ROW + "\n")
    [blown_up] = read_results_csv(csv_path)
    assert blown_up["n_converged"] == 2
    assert label_rows([blown_up], THRESHOLDS) == ["NC"]
    # its trace stays out of the quantile: with it the threshold would be 1.5 and 2.0 sharp
    rows = [row(trace=t) for t in (1.0, 2.0, 3.0)] + [blown_up]
    assert label_rows(rows, THRESHOLDS) == ["IV-A", "IV-A", "II", "NC"]


@pytest.mark.parametrize("loss,label", [(9.99, "IV-A"), (10.0, "IV-A"), (10.01, "NC"),
                                        (float("inf"), "NC"), (float("nan"), "NC")])
def test_loss_converged_bounds_the_mean_train_loss(loss, label):
    probe = row(trace=1.0)
    probe["train_loss_mean"] = loss
    assert label_rows([probe, row(trace=3.0)], THRESHOLDS)[0] == label


_SIGNED = st.tuples(st.floats(min_value=1e-300, max_value=1e300), st.booleans()).map(
    lambda m: -m[0] if m[1] else m[0])
_VALUES = st.lists(_SIGNED, min_size=1, max_size=64)
_TIED = _VALUES.flatmap(lambda vs: st.lists(st.sampled_from(vs), min_size=1, max_size=64))


@settings(max_examples=500, deadline=None)
@given(values=st.one_of(_VALUES, _TIED),
       q=st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_quantile_is_numpys_default_bit_for_bit(values, q):
    # runs against whichever numpy is installed, so each CI job checks its own
    assert _quantile(values, q).hex() == float(np.quantile(np.asarray(values), q)).hex()
