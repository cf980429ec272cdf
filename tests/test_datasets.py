import math

import numpy as np
import pytest

from losslab.datasets import (
    SPIRAL_PHI_MAX,
    SPIRAL_R0,
    SPIRAL_R1,
    Dataset,
    ProbeSet,
    gen_blobs,
    gen_spirals,
    load_csv,
    mixup_probes,
    perturb_uniform,
    randomize_labels,
    raw_probes,
    subsample,
)
from losslab.errors import FormatError, ParameterError
from losslab.model import ModelSpec
from losslab.train import TrainConfig, sgd_train


def train_linear_probe(ds, epochs=200, lr=0.5):
    """Accuracy of a linear softmax classifier trained on ds."""
    spec = ModelSpec(input_dim=ds.dim, hidden_widths=(), num_classes=ds.num_classes)
    cfg = TrainConfig(
        batch_size=ds.n, lr=lr, weight_decay=0.0, max_epochs=epochs,
        plateau_eps=0.0, seed=1,
    )
    _, [history] = sgd_train(spec, ds, ds, [cfg])
    return history.records[history.best_train_loss_epoch].train_acc


def test_blobs_zero_spread_hits_centers():
    ds = gen_blobs(n=12, num_classes=4, dim=3, spread=0.0, seed=1)
    for c in range(4):
        ang = 2 * math.pi * c / 4
        center = np.array([math.cos(ang), math.sin(ang), 0.0])
        rows = ds.X[ds.y == c]
        assert np.allclose(rows, center, atol=0.0)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_blobs_balanced_counts():
    ds = gen_blobs(n=100, num_classes=4, dim=2, spread=0.1, seed=2)
    counts = np.bincount(ds.y, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]
    uneven = gen_blobs(n=10, num_classes=4, dim=2, spread=0.1, seed=2)
    assert sorted(np.bincount(uneven.y).tolist()) == [2, 2, 3, 3]


def test_blobs_linearly_separable_when_tight():
    ds = gen_blobs(n=200, num_classes=4, dim=4, spread=0.05, seed=3)
    assert train_linear_probe(ds) > 99.0


def test_blobs_parameter_errors():
    with pytest.raises(ParameterError):
        gen_blobs(n=3, num_classes=4, dim=2, spread=0.1, seed=0)
    with pytest.raises(ParameterError):
        gen_blobs(n=10, num_classes=2, dim=1, spread=0.1, seed=0)


def test_spirals_not_linearly_separable():
    ds = gen_spirals(n=300, num_classes=2, noise=0.0, seed=4)
    assert train_linear_probe(ds) < 70.0


def test_spirals_deterministic():
    a = gen_spirals(n=50, num_classes=3, noise=0.05, seed=5)
    b = gen_spirals(n=50, num_classes=3, noise=0.05, seed=5)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_spirals_zero_noise_lie_on_arms():
    ds = gen_spirals(n=90, num_classes=3, noise=0.0, seed=6)
    slope = (SPIRAL_R1 - SPIRAL_R0) / SPIRAL_PHI_MAX
    for x, label in zip(ds.X, ds.y):
        r = math.hypot(x[0], x[1])
        base = (math.atan2(x[1], x[0]) - 2 * math.pi * label / 3) % (2 * math.pi)
        residuals = []
        k = 0
        while base + 2 * math.pi * k <= SPIRAL_PHI_MAX + 1e-9:
            phi = base + 2 * math.pi * k
            residuals.append(abs(r - (SPIRAL_R0 + slope * phi)))
            k += 1
        assert min(residuals) < 1e-12


def test_csv_roundtrip(tmp_path):
    # '%.17g' text, which names every float64 exactly
    path = tmp_path / "toy.csv"
    path.write_text("# d=2 classes=3\n1.5,-2,0\n0.10000000000000001,0.20000000000000001,1\n3,4,2\n")
    loaded = load_csv(path)
    assert loaded.n == 3
    assert np.array_equal(loaded.X, [[1.5, -2.0], [0.1, 0.2], [3.0, 4.0]])
    assert np.array_equal(loaded.y, [0, 1, 2])
    assert loaded.num_classes == 3
    assert loaded.name == "toy"
    for row, line in zip(loaded.X, path.read_text().splitlines()[1:]):
        assert ",".join("%.17g" % v for v in row) == line.rsplit(",", 1)[0]


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# d=2 classes=2\n1.0,2.0,2\n")
    with pytest.raises(FormatError, match=":2:"):
        load_csv(path)


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# d=2 classes=2\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(FormatError, match=":3:"):
        load_csv(path)


def test_csv_missing_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("1.0,2.0,0\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_randomize_labels_zero_fraction():
    ds = gen_blobs(n=40, num_classes=4, dim=2, spread=0.1, seed=7)
    out = randomize_labels(ds, 0.0, seed=8)
    assert np.array_equal(out.y, ds.y)
    assert out.y is not ds.y


def test_randomize_labels_full_fraction_never_matches():
    ds = gen_blobs(n=200, num_classes=4, dim=2, spread=0.1, seed=9)
    out = randomize_labels(ds, 1.0, seed=10)
    assert np.all(out.y != ds.y)
    assert np.all((out.y >= 0) & (out.y < 4))


def test_randomize_labels_exact_count():
    ds = gen_blobs(n=1000, num_classes=4, dim=2, spread=0.1, seed=11)
    out = randomize_labels(ds, 0.1, seed=12)
    assert int(np.sum(out.y != ds.y)) == 100


def test_randomize_labels_bad_fraction():
    ds = gen_blobs(n=10, num_classes=2, dim=2, spread=0.1, seed=13)
    with pytest.raises(ParameterError):
        randomize_labels(ds, 1.2, seed=0)


def test_subsample_identity_and_membership():
    ds = gen_blobs(n=30, num_classes=3, dim=2, spread=0.2, seed=14)
    full = subsample(ds, 30, seed=15)
    assert np.array_equal(full.X, ds.X) and np.array_equal(full.y, ds.y)
    single = subsample(ds, 1, seed=16)
    assert any(np.array_equal(single.X[0], row) for row in ds.X)
    a = subsample(ds, 10, seed=17)
    b = subsample(ds, 10, seed=17)
    assert np.array_equal(a.X, b.X)
    with pytest.raises(ParameterError):
        subsample(ds, 0, seed=0)


def test_subsample_preserves_order():
    ds = Dataset(np.arange(20, dtype=np.float64).reshape(10, 2), np.zeros(10, dtype=np.int64), 2)
    out = subsample(ds, 5, seed=18)
    assert np.all(np.diff(out.X[:, 0]) > 0)


def test_perturb_uniform_zero_magnitude():
    ds = gen_blobs(n=20, num_classes=2, dim=2, spread=0.3, seed=19)
    out = perturb_uniform(ds, 0.0, seed=20)
    assert np.array_equal(out.X, ds.X)


def test_perturb_uniform_codomain_and_mean():
    ds = gen_blobs(n=4000, num_classes=2, dim=8, spread=0.3, seed=21)
    u = 0.5
    out = perturb_uniform(ds, u, seed=22)
    diff = out.X - ds.X
    assert np.all(diff >= 0.0) and np.all(diff <= u)
    assert abs(float(diff.mean()) - u / 2) < 0.01 * u
    with pytest.raises(ParameterError):
        perturb_uniform(ds, -0.1, seed=0)


def test_mixup_fixed_lambda_returns_rows():
    ds = gen_blobs(n=20, num_classes=2, dim=3, spread=0.2, seed=23)
    probes = mixup_probes(ds, m=16, alpha=16.0, seed=24, _fixed_lambda=1.0)
    for row in probes.X:
        assert any(np.array_equal(row, x) for x in ds.X)


def test_mixup_convex_combination():
    ds = Dataset(np.array([[0.0, 10.0], [1.0, -5.0]]), np.array([0, 1]), 2)
    probes = mixup_probes(ds, m=200, alpha=16.0, seed=25)
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    assert np.all(probes.X >= lo - 1e-12) and np.all(probes.X <= hi + 1e-12)


def test_mixup_lambda_mean():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)
    probes = mixup_probes(ds, m=10_000, alpha=16.0, seed=26)
    # with two rows every probe is lam*x0 + (1-lam)*x1 for one orientation,
    # so the first coordinate recovers a Beta(16,16) draw either way
    assert abs(float(probes.X[:, 0].mean()) - 0.5) < 0.02


def test_mixup_errors():
    tiny = Dataset(np.array([[0.0, 1.0]]), np.array([0]), 2)
    with pytest.raises(ParameterError):
        mixup_probes(tiny, m=10, alpha=16.0, seed=0)
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)
    with pytest.raises(ParameterError):
        mixup_probes(ds, m=1, alpha=16.0, seed=0)
    with pytest.raises(ParameterError):
        mixup_probes(ds, m=10, alpha=0.0, seed=0)


def test_probe_source_descriptors():
    ds = gen_blobs(n=20, num_classes=2, dim=2, spread=0.2, seed=27)
    assert mixup_probes(ds, m=8, seed=0).source == "mixup(alpha=16)"
    raw = raw_probes(ds, m=8, seed=0)
    assert raw.source == "raw"
    noisy = perturb_uniform(raw, 0.25, seed=1)
    assert noisy.source == "pixel_noise(u=0.25)"
    assert np.all((noisy.X - raw.X) >= 0.0) and np.all((noisy.X - raw.X) <= 0.25)


def test_generators_bit_deterministic():
    a = gen_blobs(n=64, num_classes=4, dim=5, spread=0.7, seed=99)
    b = gen_blobs(n=64, num_classes=4, dim=5, spread=0.7, seed=99)
    assert np.array_equal(a.X, b.X)
    c = randomize_labels(a, 0.25, seed=5)
    d = randomize_labels(b, 0.25, seed=5)
    assert np.array_equal(c.y, d.y)
