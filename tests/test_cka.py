import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import cka as cka_module
from losslab.cka import cka, cka_between_models, hsic_cov, row_blocks, softmax_outputs
from losslab.datasets import ProbeSet, gen_blobs, mixup_probes, randomize_labels
from losslab.errors import DegenerateOutputError, DimensionError
from losslab.model import ModelSpec, ParamVector, forward, he_init, softmax
from losslab.rng import Rng
from losslab.train import TrainConfig, sgd_train

from oracles import hsic_literal, softmax_reference


def probes_for(spec, seed=0, m=32):
    r = Rng(seed)
    return ProbeSet(r.normals(m * spec.input_dim).reshape(m, spec.input_dim), "raw")


def random_outputs(seed, m=20, c=4):
    r = Rng(seed)
    return softmax(r.normals(m * c).reshape(m, c))


def test_softmax_outputs_uniform_for_zero_theta():
    spec = ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=5)
    theta = ParamVector.zeros(spec)
    out = softmax_outputs(spec, theta, probes_for(spec))
    assert np.allclose(out, 0.2, atol=1e-15)


def test_softmax_rows_sum_to_one():
    spec = ModelSpec(input_dim=3, hidden_widths=(6,), num_classes=4)
    theta = he_init(spec, Rng(1))
    out = softmax_outputs(spec, theta, probes_for(spec, seed=2))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_softmax_matches_reference_formula():
    logits = Rng(3).normals(60).reshape(15, 4) * 3.0
    assert np.allclose(softmax(logits), softmax_reference(logits), rtol=1e-12, atol=1e-15)


def test_softmax_outputs_dim_mismatch():
    spec = ModelSpec(input_dim=3, hidden_widths=(), num_classes=2)
    theta = ParamVector.zeros(spec)
    with pytest.raises(DimensionError):
        softmax_outputs(spec, theta, probes_for(ModelSpec(4, (), 2)))


def test_hsic_cov_single_column_is_squared_variance_sum():
    x = Rng(4).normals(9).reshape(9, 1)
    m = 9
    ssq = float(np.sum((x - x.mean()) ** 2))
    expected = ssq**2 / (m - 1) ** 2
    assert abs(hsic_cov(x, x) - expected) / expected < 1e-12


def test_hsic_cov_constant_rows_vanish():
    x = np.tile(np.array([[1.0, 2.0, 3.0]]), (6, 1))
    y = Rng(5).normals(18).reshape(6, 3)
    assert hsic_cov(x, y) == 0.0


def test_hsic_cov_matches_literal_centering_formula():
    r = Rng(6)
    for trial in range(10):
        x = r.normals(15).reshape(5, 3)
        y = r.normals(15).reshape(5, 3)
        ours = hsic_cov(x, y)
        ref = hsic_literal(x, y)
        assert abs(ours - ref) / max(abs(ref), 1e-300) < 1e-10


def test_hsic_cov_errors():
    with pytest.raises(DimensionError):
        hsic_cov(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        hsic_cov(np.zeros((1, 2)), np.zeros((1, 2)))


def test_cka_self_is_one():
    f = random_outputs(7)
    assert abs(cka(f, f) - 1.0) < 1e-12


def test_cka_orthogonal_invariance():
    f = random_outputs(8, m=25, c=4)
    q, _ = np.linalg.qr(Rng(9).normals(16).reshape(4, 4))
    assert abs(cka(f, f @ q) - 1.0) < 1e-9


def test_cka_scale_and_shift_invariance():
    f = random_outputs(10, m=25, c=4)
    shifted = 2.5 * f + np.array([3.0, -1.0, 0.5, 7.0])
    assert abs(cka(f, shifted) - 1.0) < 1e-9


def test_cka_symmetric_exactly():
    a = random_outputs(11)
    b = random_outputs(12)
    assert cka(a, b) == cka(b, a)


def test_cka_degenerate_outputs_rejected():
    const = np.tile(np.array([[0.25, 0.25, 0.25, 0.25]]), (10, 1))
    other = random_outputs(13)
    with pytest.raises(DegenerateOutputError):
        cka(const, other)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cka_bounded_property(seed):
    a = random_outputs(2 * seed, m=12, c=3)
    b = random_outputs(2 * seed + 1, m=12, c=3)
    val = cka(a, b)
    assert 0.0 <= val <= 1.0 + 1e-9


def test_cka_between_models_self():
    spec = ModelSpec(input_dim=4, hidden_widths=(6,), num_classes=3)
    theta = he_init(spec, Rng(14))
    probes = probes_for(spec, seed=15)
    assert abs(cka_between_models(spec, theta, theta, probes) - 1.0) < 1e-12


def permute_hidden_units(spec, theta, perm):
    out = theta.copy()
    (w1, b1), (w2, b2) = out.views()
    w1[...] = w1[:, perm]
    b1[...] = b1[perm]
    w2[...] = w2[perm, :]
    return out


def test_cka_invariant_to_hidden_permutation():
    spec = ModelSpec(input_dim=4, hidden_widths=(6,), num_classes=3)
    theta = he_init(spec, Rng(16))
    perm = Rng(17).permutation(6)
    permuted = permute_hidden_units(spec, theta, perm)
    probes = probes_for(spec, seed=18)
    assert abs(cka_between_models(spec, theta, permuted, probes) - 1.0) < 1e-9


def test_cka_invariant_to_relu_rescaling():
    spec = ModelSpec(input_dim=4, hidden_widths=(6,), num_classes=3)
    theta = he_init(spec, Rng(19))
    scaled = theta.copy()
    (w1, b1), (w2, b2) = scaled.views()
    c = 3.7
    w1 *= c
    b1 *= c
    w2 /= c
    probes = probes_for(spec, seed=20)
    assert abs(cka_between_models(spec, theta, scaled, probes) - 1.0) < 1e-9


def test_trained_models_more_aligned_on_clean_labels():
    """Directional check: clean-label replicas agree more than noise-label ones."""
    clean = gen_blobs(n=200, num_classes=4, dim=6, spread=0.15, seed=30)
    noisy = randomize_labels(clean, 1.0, seed=31)
    test = gen_blobs(n=80, num_classes=4, dim=6, spread=0.15, seed=32)
    spec = ModelSpec(input_dim=6, hidden_widths=(32,), num_classes=4)
    probes = mixup_probes(clean, m=256, alpha=16.0, seed=33)

    def train_pair(ds, seed_a, seed_b):
        cfg = TrainConfig(batch_size=32, lr=0.05, weight_decay=5e-4, max_epochs=80,
                          plateau_eps=1e-4, plateau_epochs=5)
        (ta, tb), _ = sgd_train(spec, ds, test, cfg, [seed_a, seed_b])
        return cka_between_models(spec, ta, tb, probes)

    assert train_pair(clean, 1, 2) > train_pair(noisy, 1, 2)


@pytest.mark.parametrize("m,blocks", [
    (2, [(0, 2)]),
    (1024, [(0, 1024)]),
    (1025, [(0, 512), (512, 1025)]),
    (1026, [(0, 512), (512, 1024), (1024, 1026)]),
    (2049, [(0, 512), (512, 1024), (1024, 1536), (1536, 2049)]),
    (4000, [(0, 512), (512, 1024), (1024, 1536), (1536, 2048), (2048, 2560), (2560, 3072),
            (3072, 3584), (3584, 4000)]),
])
def test_row_blocks(m, blocks):
    assert row_blocks(m) == blocks


def test_row_blocks_tile_the_rows_and_none_has_one_row():
    # a one-row block would be a gemv, which rounds differently from gemm
    for m in range(2, 5000):
        blocks = row_blocks(m)
        assert blocks[0][0] == 0 and blocks[-1][1] == m, m
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:])), m
        assert all(stop - start >= 2 for start, stop in blocks), m


@pytest.mark.parametrize("widths", [(16,), (32,), (16, 16), (24, 24), (32, 32)])
@pytest.mark.parametrize("m", [1025, 1026, 2049, 4000])
def test_blocked_softmax_outputs_equal_the_whole_forward_bitwise(widths, m, monkeypatch):
    spec = ModelSpec(input_dim=8, hidden_widths=widths, num_classes=4)
    theta = he_init(spec, Rng(m).split("theta"))
    probes = mixup_probes(gen_blobs(1000, 4, 8, 0.15, seed=1), m=m, alpha=16.0, seed=5)
    whole = softmax(forward(spec, theta, probes.X))
    calls = []
    monkeypatch.setattr(cka_module, "forward", lambda *a: calls.append(a) or forward(*a))
    blocked = softmax_outputs(spec, theta, probes)
    assert len(calls) == len(row_blocks(m))
    assert [x.hex() for x in blocked.ravel()] == [x.hex() for x in whole.ravel()]


def test_cka_memory_does_not_grow_with_the_probes_hidden_activations():
    """At 16,000 probes the whole forward's activations alone would take 8 MB."""
    spec = ModelSpec(input_dim=8, hidden_widths=(32, 32), num_classes=4)
    theta_a, theta_b = (he_init(spec, Rng(s)) for s in (1, 2))
    probes = probes_for(spec, seed=3, m=16_000)
    cka_between_models(spec, theta_a, theta_b, probes)  # numpy's first-call setup is not counted
    tracemalloc.start()
    try:
        cka_between_models(spec, theta_a, theta_b, probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
