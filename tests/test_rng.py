import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import rng as rng_module
from losslab.errors import ParameterError
from losslab.rng import (
    LANES, STRIDE, BlockStream, Rng, _splitmix64, derive_seed, permutations, raw_outputs)
from losslab.train import epoch_batches

from oracles import splitmix64_stream, xoshiro256pp_stream

# First outputs of splitmix64 for seed 0, as published in the common
# cross-implementation test vectors.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_matches_published_sequence():
    state = 0
    outs = []
    for _ in range(3):
        state, out = _splitmix64(state)
        outs.append(out)
    assert outs == SPLITMIX64_SEED0
    assert outs == splitmix64_stream(0, 3)


def test_seeding_uses_four_splitmix_outputs():
    for seed in (0, 7, 123456789, 2**63 + 5):
        assert Rng(seed)._s == splitmix64_stream(seed, 4)


def test_stream_matches_reference_xoshiro():
    for seed in (0, 7, 8, 999):
        r = Rng(seed)
        ref = xoshiro256pp_stream(splitmix64_stream(seed, 4), 64)
        assert [r.next_u64() for _ in range(64)] == ref


def test_known_xoshiro_state_vector():
    # state {1,2,3,4}: result = rotl(1+4, 23) + 1 = (5 << 23) + 1
    r = Rng(0)
    r._s = [1, 2, 3, 4]
    assert r.next_u64() == (5 << 23) + 1


def test_same_seed_same_doubles():
    a = Rng(7).uniforms(1000)
    b = Rng(7).uniforms(1000)
    assert np.array_equal(a, b)


def test_different_seeds_diverge_quickly():
    a = xoshiro256pp_stream(splitmix64_stream(7, 4), 16)
    b = xoshiro256pp_stream(splitmix64_stream(8, 4), 16)
    assert a != b
    assert [Rng(7).next_u64() for _ in range(16)] != [
        Rng(8).next_u64() for _ in range(16)
    ]


def test_split_streams_are_reproducible_and_distinct():
    base = Rng(42)
    s1 = base.split("metrics", 0)
    s2 = base.split("metrics", 1)
    assert s1.uniforms(32).tolist() != s2.uniforms(32).tolist()
    again = Rng(42).split("metrics", 0)
    assert np.array_equal(Rng(42).split("metrics", 0).uniforms(32), again.uniforms(32))
    # keyed by value and type, not by call order
    assert derive_seed(42, "a", 1) != derive_seed(42, "a", 1.0)


@pytest.mark.parametrize("key, seed", [
    ((7, 3), 8261051171445316480),
    ((7, 0.25), 5209394394650186118),
    ((7, "probes"), 8958757700547550161),
    ((2**64 - 1, "cell", -2, 1.5, True), 9260171542551566758),
])
def test_derive_seed_values_are_pinned(key, seed):
    assert derive_seed(*key) == seed


def test_split_independent_of_parent_position():
    a = Rng(42)
    a.uniforms(100)
    assert a.split("x").next_u64() == Rng(42).split("x").next_u64()


def test_rademacher_codomain_and_determinism():
    v = Rng(3).rademacher(4)
    assert set(np.unique(v)) <= {-1.0, 1.0}
    assert np.array_equal(Rng(3).rademacher(64), Rng(3).rademacher(64))
    with pytest.raises(ParameterError):
        Rng(3).rademacher(0)


def test_rademacher_mean_law_of_large_numbers():
    v = Rng(11).rademacher(1_000_000)
    assert abs(float(v.mean())) < 0.01


def test_uniform_range():
    u = Rng(5).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normals_moments():
    z = Rng(17).normals(200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.var()) - 1.0) < 0.02


def test_integer_bounds_and_coverage():
    r = Rng(2)
    draws = [r.integer(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    with pytest.raises(ParameterError):
        r.integer(0)


def test_permutation_is_a_permutation():
    p = Rng(9).permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))


def test_choose_sorted_subset():
    idx = Rng(9).choose(100, 10)
    assert np.array_equal(idx, np.sort(idx))
    assert len(set(idx.tolist())) == 10
    assert np.all((idx >= 0) & (idx < 100))


def test_beta_mean_symmetric():
    r = Rng(100)
    draws = np.array([r.beta(16.0) for _ in range(100_000)])
    assert abs(float(draws.mean()) - 0.5) < 0.01
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_beta_variance_alpha16():
    # Var Beta(a,a) = a^2 / ((2a)^2 (2a+1)) = 1/(4*(2a+1)); a=16 -> 1/132
    r = Rng(101)
    draws = np.array([r.beta(16.0) for _ in range(100_000)])
    expected = 1.0 / 132.0
    assert abs(float(draws.var()) - expected) < 0.1 * expected


def test_beta_alpha1_is_uniform_by_ks():
    r = Rng(102)
    n = 100_000
    draws = np.sort([r.beta(1.0) for _ in range(n)])
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = max(float(np.max(ecdf_hi - draws)), float(np.max(draws - ecdf_lo)))
    # KS critical value at alpha=0.01 for n=1e5 is ~0.00515
    assert d < 0.006


def test_beta_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        Rng(1).beta(0.0)
    with pytest.raises(ParameterError):
        Rng(1).beta(-2.0)


def test_gamma_mean_matches_alpha():
    r = Rng(103)
    for alpha in (0.7, 1.0, 4.0, 16.0):
        draws = np.array([r.gamma(alpha) for _ in range(20_000)])
        assert abs(float(draws.mean()) - alpha) < 0.05 * max(alpha, 1.0), alpha


# -- block draws over numpy lanes ------------------------------------------

BLOCK = LANES * STRIDE
BLOCK_SIZES = [1, STRIDE - 1, STRIDE, STRIDE + 1, BLOCK - 1, BLOCK, BLOCK + 1, 212, 1000, 8000]


@pytest.fixture
def lanes_always(monkeypatch):
    """Draw every length from the lanes, however short."""
    monkeypatch.setattr(rng_module, "CROSSOVER", 0)


def streams(seeds):
    """Fresh generators, and the start state of each for the oracle."""
    rngs = [Rng(s) for s in seeds]
    return rngs, [list(r._s) for r in rngs]


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_block_draws_match_reference_stream(lanes_always, count, n):
    rngs, starts = streams(range(50, 50 + count))
    out = raw_outputs(rngs, n)
    assert out.shape == (count, n) and out.dtype == np.uint64
    for r, start, row in zip(rngs, starts, out):
        ref = xoshiro256pp_stream(start, n + 2)
        assert row.tolist() == ref[:n]
        # the generator is left exactly n steps on
        assert [r.next_u64(), r.next_u64()] == ref[n:]


@pytest.mark.parametrize("count", [1, 3])
def test_block_and_scalar_draws_interleave_on_one_stream(lanes_always, count):
    rngs, starts = streams(range(7, 7 + count))
    first = raw_outputs(rngs, BLOCK + 5)
    scalars = [(r.next_u64(), r.uniform()) for r in rngs]
    second = raw_outputs(rngs, 3 * STRIDE)
    for start, a, (u64, u), b in zip(starts, first, scalars, second):
        ref = xoshiro256pp_stream(start, BLOCK + 5 + 2 + 3 * STRIDE)
        assert a.tolist() == ref[: BLOCK + 5]
        assert u64 == ref[BLOCK + 5]
        assert u == (ref[BLOCK + 6] >> 11) * 2.0**-53
        assert b.tolist() == ref[BLOCK + 7 :]


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       n=st.integers(0, 3 * BLOCK))
def test_block_draws_match_reference_property(seeds, n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "CROSSOVER", 0)
        rngs, starts = streams(seeds)
        out = raw_outputs(rngs, n)
    for r, start, row in zip(rngs, starts, out):
        ref = xoshiro256pp_stream(start, n + 1)
        assert row.tolist() == ref[:n]
        assert r.next_u64() == ref[n]


def test_crossover_picks_the_path_not_the_stream():
    short = Rng(3).uniforms(rng_module.CROSSOVER - 1)
    long = Rng(3).uniforms(rng_module.CROSSOVER + 1)
    assert np.array_equal(short, long[: rng_module.CROSSOVER - 1])


def test_jump_table_is_built_once_and_fits_512_kb():
    table = rng_module._table()
    assert table is rng_module._table()
    assert table.shape == (256, 4, LANES) and table.nbytes <= 512 * 1024
    # lane 0 is no jump: entry i is unit state i itself
    bits = np.arange(256)
    assert np.array_equal(table[bits, bits // 64, 0], np.uint64(1) << (bits % 64).astype(np.uint64))
    assert np.count_nonzero(table[:, :, 0]) == 256


@pytest.mark.parametrize("n", [5, 300, 1000])
def test_stacked_epoch_batches_are_the_per_generator_permutations(n):
    stacked = epoch_batches(n, 64, [Rng(s) for s in range(4)])
    perms = [Rng(s).permutation(n) for s in range(4)]
    assert np.array_equal(np.concatenate(stacked, axis=1), np.stack(perms))
    one = epoch_batches(n, 64, [Rng(2)])
    assert np.array_equal(np.concatenate(one, axis=1), perms[2][None])
    assert np.array_equal(permutations([Rng(1)], n)[0], perms[1])


@pytest.mark.parametrize("n", [0, 1, 1000, 2047, 2048, 2049, 3000])
def test_permutations_are_stable_argsorts_of_uniform_keys(n):
    perms = permutations([Rng(s) for s in range(3)], n)
    assert perms.dtype == np.intp
    for s, row in enumerate(perms):
        assert np.array_equal(row, np.argsort(Rng(s).uniforms(n), kind="stable"))


@pytest.mark.parametrize("n", [300, 2048, 2100])
def test_permutations_break_key_ties_by_index(monkeypatch, n):
    # 40 distinct keys, so every key is tied many times over
    tied = (np.arange(n, dtype=np.uint64) * np.uint64(7919) % np.uint64(40)) << np.uint64(11)
    monkeypatch.setattr(rng_module, "raw_outputs", lambda rngs, n: np.stack([tied, tied[::-1]]))
    perms = permutations([Rng(0), Rng(1)], n)
    assert np.array_equal(perms[0], np.argsort(tied, kind="stable"))
    assert np.array_equal(perms[1], np.argsort(tied[::-1], kind="stable"))


def test_normal_is_normals_of_one():
    for seed in range(2000):
        assert Rng(seed).normal() == Rng(seed).normals(1)[0]
    r, ref = Rng(5), Rng(5)
    assert [r.normal() for _ in range(500)] == [ref.normals(1)[0] for _ in range(500)]


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("n", [8 * BLOCK, 8 * BLOCK + 1, 20_000, 74_000])
def test_multi_block_passes_match_reference_stream(count, n):
    # one pass steps _PASS_LANES lanes over all streams: 64 blocks for one
    # stream, 16 for four, so these lengths end inside a block, on a block
    # edge and across passes
    rngs, starts = streams(range(90, 90 + count))
    out = raw_outputs(rngs, n)
    for r, start, row in zip(rngs, starts, out):
        ref = xoshiro256pp_stream(start, n + 2)
        assert row.tolist() == ref[:n]
        assert [r.next_u64(), r.next_u64()] == ref[n:]


# -- walking one stream in blocks -------------------------------------------

def test_block_stream_calls_equal_the_generator_calls(monkeypatch):
    # the smallest blocks, so walks cross many block edges, including a
    # normal whose two outputs straddle one
    monkeypatch.setattr(rng_module, "WALK_BLOCK", 2 * STRIDE)
    pick = Rng(1)
    calls = [("next_u64",), ("uniform",), ("normal",), ("integer", 1), ("integer", 5),
             ("integer", 1025), ("gamma", 0.3), ("gamma", 4.0), ("beta", 16.0),
             ("beta", 0.001)]
    for seed in range(20):
        walk, ref = BlockStream(Rng(seed), 0), Rng(seed)
        for _ in range(300):
            name, *args = calls[pick.integer(len(calls))]
            assert getattr(walk, name)(*args) == getattr(ref, name)(*args), (seed, name, args)


def test_block_stream_beta_returns_half_when_both_gammas_underflow():
    walk = BlockStream(Rng(4), 200)
    assert 0.5 in [walk.beta(0.001) for _ in range(50)]
