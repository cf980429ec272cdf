import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import rng as rng_module
from losslab.errors import ParameterError
from losslab.rng import Rng, derive_seed, permutations, raw_outputs
from losslab.train import epoch_batches

from oracles import (
    beta_loop,
    gamma_loop,
    integers_loop,
    normals_loop,
    splitmix64_stream,
    uniform_loop,
    word,
)

# First outputs of splitmix64 for seed 0, as published in the common
# cross-implementation test vectors.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def words(r, n):
    """The next n words of ``r`` as Python ints."""
    return raw_outputs([r], n)[0].tolist()


def test_splitmix64_matches_published_sequence():
    outs = words(Rng(0), 3)
    assert outs == SPLITMIX64_SEED0
    assert outs == splitmix64_stream(0, 3)
    r = Rng(0)
    assert [word(r) for _ in range(3)] == SPLITMIX64_SEED0


def test_stream_matches_reference_splitmix64():
    for seed in (0, 7, 8, 999, 2**63 + 5, 2**64 - 1):
        r = Rng(seed)
        # draws of uneven lengths continue where the last one stopped
        assert sum((words(r, n) for n in (1, 20, 43)), []) == splitmix64_stream(seed, 64)


def test_same_seed_same_doubles():
    a = Rng(7).uniforms(1000)
    b = Rng(7).uniforms(1000)
    assert np.array_equal(a, b)


def test_different_seeds_diverge_quickly():
    a = splitmix64_stream(7, 16)
    b = splitmix64_stream(8, 16)
    assert a != b
    assert words(Rng(7), 16) != words(Rng(8), 16)


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


def test_derive_seed_takes_its_base_mod_2_64():
    # as Rng takes its seed; a config seed out of [0, 2**64) names the seed it is congruent to
    assert derive_seed(-1, "x") == derive_seed(2**64 - 1, "x")
    assert derive_seed(2**64 + 7, "x") == derive_seed(7, "x")
    assert Rng(-1).uniforms(4).tolist() == Rng(2**64 - 1).uniforms(4).tolist()


def test_split_independent_of_parent_position():
    a = Rng(42)
    a.uniforms(100)
    assert words(a.split("x"), 4) == words(Rng(42).split("x"), 4)


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


@pytest.mark.parametrize("bound", [2, 4, 8])
def test_integer_at_a_power_of_two_takes_one_word_per_draw(bound):
    r = Rng(15)
    draws = [r.integer(bound) for _ in range(5000)]
    assert r._pos == 5000
    assert draws == [w % bound for w in splitmix64_stream(15, 5000)]


def test_permutation_is_a_permutation():
    p = Rng(9).permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))


def test_choose_sorted_subset():
    idx = Rng(9).choose(100, 10)
    assert np.array_equal(idx, np.sort(idx))
    assert len(set(idx.tolist())) == 10
    assert np.all((idx >= 0) & (idx < 100))


@pytest.mark.parametrize("bound", [1, 2, 64, 1024])
def test_integers_below_a_power_of_two_take_one_word_each(bound):
    r = Rng(12)
    draws = r.integers(bound, 20_000)
    assert draws.dtype == np.intp
    assert r._pos == 20_000
    assert set(draws.tolist()) == set(range(bound))
    assert draws.tolist() == [w % bound for w in splitmix64_stream(12, 20_000)]


@pytest.mark.parametrize("bound", [3, 5, 17, 65, 1025])
def test_integers_redraw_only_out_of_range_entries(bound):
    r, ref = Rng(13), Rng(13)
    draws = r.integers(bound, 20_000)
    assert set(draws.tolist()) == set(range(bound))
    # the stream advanced by exactly the words the oracle read
    assert draws.tolist() == integers_loop(ref, bound, 20_000)
    assert r._pos == ref._pos > 20_000
    assert words(r, 1) == [word(ref)]


def test_integers_are_uniform_just_above_a_power_of_two():
    # 2**k + 1 rejects almost half of the candidates, the worst case of the mask
    counts = np.bincount(Rng(14).integers(65, 650_000), minlength=65)
    assert counts.size == 65
    assert abs(counts - 10_000).max() < 500  # about 5 standard deviations


def test_integers_reject_a_bound_below_one():
    for bound in (0, -3):
        with pytest.raises(ParameterError):
            Rng(1).integers(bound, 4)


def test_beta_mean_symmetric():
    draws = Rng(100).beta(16.0, 100_000)
    assert draws.shape == (100_000,)
    assert abs(float(draws.mean()) - 0.5) < 0.01
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_beta_variance_alpha16():
    # Var Beta(a,a) = a^2 / ((2a)^2 (2a+1)) = 1/(4*(2a+1)); a=16 -> 1/132
    draws = Rng(101).beta(16.0, 100_000)
    expected = 1.0 / 132.0
    assert abs(float(draws.var()) - expected) < 0.1 * expected


def test_beta_alpha1_is_uniform_by_ks():
    n = 100_000
    draws = np.sort(Rng(102).beta(1.0, n))
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = max(float(np.max(ecdf_hi - draws)), float(np.max(draws - ecdf_lo)))
    # KS critical value at alpha=0.01 for n=1e5 is ~0.00515
    assert d < 0.006


def test_beta_rejects_bad_alpha():
    for alpha in (0.0, -2.0):
        with pytest.raises(ParameterError):
            Rng(1).beta(alpha, 4)
        with pytest.raises(ParameterError):
            Rng(1).gamma(alpha, 4)


def test_gamma_mean_matches_alpha():
    r = Rng(103)
    for alpha in (0.5, 0.7, 1.0, 4.0, 16.0):
        draws = r.gamma(alpha, 20_000)
        assert np.all(draws >= 0.0)
        assert abs(float(draws.mean()) - alpha) < 0.05 * max(alpha, 1.0), alpha


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 16.0])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 3000])
def test_gamma_and_beta_equal_their_oracles(alpha, n):
    r, ref = Rng(n), Rng(n)
    assert r.gamma(alpha, n).tolist() == gamma_loop(ref, alpha, n)
    assert r.beta(alpha, n).tolist() == beta_loop(ref, alpha, n)
    assert r._pos == ref._pos
    assert words(r, 1) == [word(ref)]


# -- array draws against the reference stream -------------------------------

# lengths on both sides of powers of two
SIZES = [1, 15, 16, 17, 1023, 1024, 1025, 212, 1000, 8000, 255, 256, 257]


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("n", SIZES)
def test_block_draws_match_reference_stream(count, n):
    seeds = range(50, 50 + count)
    rngs = [Rng(s) for s in seeds]
    out = raw_outputs(rngs, n)
    assert out.shape == (count, n) and out.dtype == np.uint64
    for r, seed, row in zip(rngs, seeds, out):
        ref = splitmix64_stream(seed, n + 2)
        assert row.tolist() == ref[:n]
        # the generator is left exactly n words on
        assert words(r, 2) == ref[n:]


@pytest.mark.parametrize("count", [1, 3])
def test_block_and_scalar_draws_interleave_on_one_stream(count):
    # a draw over all generators, one-word draws on each alone, then all again
    seeds = range(7, 7 + count)
    rngs = [Rng(s) for s in seeds]
    first = raw_outputs(rngs, 261)
    singles = [(words(r, 1)[0], float(r.uniforms(1)[0])) for r in rngs]
    second = raw_outputs(rngs, 48)
    for seed, a, (u64, u), b in zip(seeds, first, singles, second):
        ref = splitmix64_stream(seed, 261 + 2 + 48)
        assert a.tolist() == ref[:261]
        assert u64 == ref[261]
        assert u == (ref[262] >> 11) * 2.0**-53
        assert b.tolist() == ref[263:]


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       n=st.integers(0, 3072))
def test_block_draws_match_reference_property(seeds, n):
    rngs = [Rng(s) for s in seeds]
    out = raw_outputs(rngs, n)
    for r, seed, row in zip(rngs, seeds, out):
        ref = splitmix64_stream(seed, n + 1)
        assert row.tolist() == ref[:n]
        assert words(r, 1) == [ref[n]]


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


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("n", [8192, 8193, 20_000, 74_000])
def test_multi_block_passes_match_reference_stream(count, n):
    seeds = range(90, 90 + count)
    rngs = [Rng(s) for s in seeds]
    out = raw_outputs(rngs, n)
    for r, seed, row in zip(rngs, seeds, out):
        ref = splitmix64_stream(seed, n + 2)
        assert row.tolist() == ref[:n]
        assert words(r, 2) == ref[n:]


# -- every draw on one stream -------------------------------------------------

class StreamReader:
    """Reads a stream word by word through ``oracles.word`` and applies ``Rng``'s transforms.

    ``integer``, ``integers``, ``normals``, ``gamma`` and ``beta`` are the
    oracles, run on the words this reader hands out.
    """

    def __init__(self, seed):
        self.seed, self._pos = seed, 0

    def take(self, n):
        return [word(self) for _ in range(n)]

    def uniforms(self, n):
        return np.array([uniform_loop(self) for _ in range(n)])

    def normals(self, n):
        return np.array(normals_loop(self, n))

    def integers(self, bound, n):
        return np.array(integers_loop(self, bound, n))

    def gamma(self, alpha, n):
        return np.array(gamma_loop(self, alpha, n))

    def beta(self, alpha, n):
        return np.array(beta_loop(self, alpha, n))

    def rademacher(self, n):
        return np.array([1.0 if w >> 63 else -1.0 for w in self.take(n)])

    def permutation(self, n):
        return np.argsort(self.uniforms(n), kind="stable")

    def integer(self, bound):
        return integers_loop(self, bound, 1)[0]


CALLS = [("normals", 1), ("normals", 5), ("integer", 1), ("integer", 4),
         ("integer", 5), ("integer", 1025), ("integers", 1, 3), ("integers", 5, 40),
         ("integers", 1025, 120), ("gamma", 0.3, 2), ("gamma", 4.0, 9), ("beta", 16.0, 1),
         ("beta", 16.0, 64), ("beta", 0.001, 5),
         ("uniforms", 1), ("uniforms", 37), ("uniforms", 300), ("rademacher", 3),
         ("rademacher", 260), ("permutation", 2), ("permutation", 100)]


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("lead", [2, 3, 7, 256])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       calls=st.lists(st.sampled_from(CALLS), min_size=1, max_size=120))
def test_scalar_and_array_draws_read_the_stream_in_order(lead, seed, calls):
    # the calls start ``lead`` words into the stream
    r, ref = Rng(seed), StreamReader(seed)
    assert words(r, lead) == ref.take(lead)
    got = [getattr(r, name)(*args) for name, *args in calls]
    for (name, *args), value in zip(calls, got):
        assert same(value, getattr(ref, name)(*args)), (name, args)
    assert words(r, 1) == [word(ref)]


def test_beta_returns_half_when_both_gammas_underflow():
    assert 0.5 in Rng(4).beta(0.001, 50).tolist()
