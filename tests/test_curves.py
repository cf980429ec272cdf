import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab.curves import (
    DEFAULT_T_GRID,
    CurveProfile,
    CurveTrainConfig,
    bernstein,
    curve_point,
    curve_profile,
    init_curve,
    mode_connectivity,
    train_curve,
)
from losslab.datasets import Dataset, gen_blobs
from losslab.errors import DimensionError, DivergenceError, ParameterError
from losslab.model import ModelSpec, ParamVector, evaluate, he_init
from losslab.rng import Rng
from losslab.train import LinearDecay, TrainConfig, epoch_batches, sgd_train

from conftest import penalty_only_instance
from oracles import uniform_loop


def make_endpoints(seed=0, spec=None):
    spec = spec or ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=3)
    a = he_init(spec, Rng(seed))
    b = he_init(spec, Rng(seed + 1))
    return spec, a, b


def test_curve_point_endpoints_bit_exact():
    _, a, b = make_endpoints()
    curve = init_curve(a, b, k=2)
    assert np.array_equal(curve_point(curve, 0.0).values, a.values)
    assert np.array_equal(curve_point(curve, 1.0).values, b.values)


def test_curve_point_linear_midpoint():
    _, a, b = make_endpoints(seed=2)
    curve = init_curve(a, b, k=1)
    mid = curve_point(curve, 0.5)
    assert np.allclose(mid.values, 0.5 * a.values + 0.5 * b.values, rtol=0, atol=0)


def test_curve_point_quadratic_coefficients():
    # at k=2, t=0.5 the Bernstein weights are C(2,j) * 0.5^2 = 1/4, 1/2, 1/4
    assert np.allclose(bernstein(2, 0.5), [0.25, 0.5, 0.25], atol=0)
    _, a, b = make_endpoints(seed=3)
    curve = init_curve(a, b, k=2)
    bend = curve.values[1]
    expected = 0.25 * a.values + 0.5 * bend + 0.25 * b.values
    assert np.allclose(curve_point(curve, 0.5).values, expected, rtol=1e-15, atol=0)


def test_curve_point_rejects_out_of_range():
    _, a, b = make_endpoints()
    curve = init_curve(a, b)
    with pytest.raises(ParameterError):
        curve_point(curve, -0.1)
    with pytest.raises(ParameterError):
        curve_point(curve, 1.1)


def test_init_curve_straight_line():
    _, a, b = make_endpoints(seed=4)
    curve = init_curve(a, b, k=2)
    assert np.array_equal(curve.values[1], a.values + 0.5 * (b.values - a.values))
    same = init_curve(a, a, k=3)
    for c in same.values:
        assert np.array_equal(c, a.values)


def test_init_curve_layout_mismatch():
    # the second pair has one parameter count, P = 26: a size check would pass it
    for dims_a, dims_b in [((3, 4, 3), (3, 5, 3)), ((3, 4, 2), (5, 3, 2))]:
        spec_a, spec_b = (ModelSpec(d[0], d[1:-1], d[-1]) for d in (dims_a, dims_b))
        with pytest.raises(DimensionError):
            init_curve(he_init(spec_a, Rng(0)), he_init(spec_b, Rng(1)))


def test_train_curve_preserves_endpoints_bitwise():
    spec, a, b = make_endpoints(seed=5)
    a_snapshot = a.values.copy()
    b_snapshot = b.values.copy()
    ds = gen_blobs(n=60, num_classes=3, dim=3, spread=0.2, seed=6)
    cfg = CurveTrainConfig(epochs=8, lr=0.05, schedule=None, batch_size=20, seed=7)
    [trained] = train_curve(spec, [(a, b)], ds, cfg, [cfg.seed], weight_decay=1e-3)
    assert np.array_equal(trained.values[0], a_snapshot)
    assert np.array_equal(trained.values[-1], b_snapshot)
    # and the interior actually moved
    straight = a_snapshot + 0.5 * (b_snapshot - a_snapshot)
    assert not np.array_equal(trained.values[1], straight)


def test_train_curve_zero_lr_keeps_bends():
    spec, a, b = make_endpoints(seed=8)
    ds = gen_blobs(n=30, num_classes=3, dim=3, spread=0.2, seed=9)
    cfg = CurveTrainConfig(epochs=3, lr=0.0, schedule=None, batch_size=10, seed=10)
    [trained] = train_curve(spec, [(a, b)], ds, cfg, [cfg.seed])
    assert np.array_equal(trained.values, init_curve(a, b, k=2).values)


def test_train_curve_lowers_midpoint_loss_on_quadratic():
    # Both endpoints, and so every point of the curve, have a data term
    # that is exactly zero (see penalty_only_instance), so the loss is
    # the penalty wd * ||theta||^2 alone: each step moves the bend by
    # lr * b_1(t) * 2 * wd * gamma(t).
    spec, a, batch = penalty_only_instance(seed=0, batch=20)
    _, b, _ = penalty_only_instance(seed=1, batch=20)
    ds = Dataset(batch.X, batch.y, spec.num_classes)
    wd = 0.5

    def mid_loss(curve):
        theta = curve_point(curve, 0.5)
        return wd * float(theta.values @ theta.values)

    curve = init_curve(a, b, k=2)
    initial = mid_loss(curve)
    cfg = CurveTrainConfig(epochs=20, lr=0.05, schedule=None, batch_size=10, seed=12)
    [trained] = train_curve(spec, [(a, b)], ds, cfg, [cfg.seed], weight_decay=wd)
    assert mid_loss(trained) < initial

    rng = Rng(cfg.seed)
    bend = curve.values[1].copy()
    for _ in range(cfg.epochs):
        for _ in epoch_batches(ds.n, cfg.batch_size, [rng]):
            c = bernstein(2, uniform_loop(rng))
            gamma = c[0] * a.values + c[1] * bend + c[2] * b.values
            bend -= (cfg.lr * c[1]) * ((2.0 * wd) * gamma)
    assert np.array_equal(trained.values[1], bend)


def test_train_curve_divergence():
    spec, a, b = make_endpoints(seed=13)
    ds = gen_blobs(n=30, num_classes=3, dim=3, spread=0.2, seed=14)
    cfg = CurveTrainConfig(epochs=10, lr=1e200, schedule=None, batch_size=10, seed=15)
    [trained] = train_curve(spec, [(a, b)], ds, cfg, [cfg.seed])
    assert isinstance(trained, DivergenceError) and trained.epoch == 0


def test_profile_constant_for_degenerate_curve():
    spec, a, _ = make_endpoints(seed=16)
    ds = gen_blobs(n=40, num_classes=3, dim=3, spread=0.3, seed=17)
    profile = curve_profile(spec, init_curve(a, a, k=2), ds)
    assert len(set(profile.err01)) == 1
    assert max(profile.cross_entropy) - min(profile.cross_entropy) < 1e-12


def test_profile_endpoints_match_evaluate():
    spec, a, b = make_endpoints(seed=18)
    ds = gen_blobs(n=40, num_classes=3, dim=3, spread=0.3, seed=19)
    profile = curve_profile(spec, init_curve(a, b, k=2), ds)
    assert profile.err01[0] == 100.0 - evaluate(spec, a, ds).acc
    assert profile.err01[-1] == 100.0 - evaluate(spec, b, ds).acc


def test_profile_random_bend_hurts_perfect_model():
    train = gen_blobs(n=80, num_classes=3, dim=4, spread=0.05, seed=20)
    spec = ModelSpec(input_dim=4, hidden_widths=(16,), num_classes=3)
    cfg = TrainConfig(batch_size=16, lr=0.05, weight_decay=5e-4, max_epochs=100,
                      plateau_eps=1e-4, plateau_epochs=5, seed=21)
    [theta], _ = sgd_train(spec, train, train, cfg, [cfg.seed])
    assert 100.0 - evaluate(spec, theta, train).acc == 0.0
    wild = ParamVector(spec, 5.0 * Rng(22).normals(spec.param_count))
    curve = ParamVector(spec, np.stack([theta.values, wild.values, theta.values]))
    profile = curve_profile(spec, curve, train)
    mid = profile.t_values.index(0.5)
    assert profile.err01[mid] >= profile.err01[0]


def test_mode_connectivity_hand_cases():
    barrier = CurveProfile((0.0, 0.5, 1.0), [0.0, 60.0, 0.0], [0.0, 1.0, 0.0])
    assert mode_connectivity(barrier) == -60.0
    unconverged = CurveProfile((0.0, 0.5, 1.0), [80.0, 20.0, 80.0], [2.0, 0.5, 2.0])
    assert mode_connectivity(unconverged) == 60.0
    flat = CurveProfile((0.0, 0.5, 1.0), [12.5, 12.5, 12.5], [0.3, 0.3, 0.3])
    assert mode_connectivity(flat) == 0.0


def test_mode_connectivity_self_pair_zero():
    spec, a, _ = make_endpoints(seed=23)
    ds = gen_blobs(n=40, num_classes=3, dim=3, spread=0.3, seed=24)
    profile = curve_profile(spec, init_curve(a, a.copy(), k=2), ds)
    assert mode_connectivity(profile) == 0.0


def test_mode_connectivity_tie_breaks_to_smallest_t():
    profile = CurveProfile((0.0, 0.25, 0.75, 1.0), [10.0, 30.0, 30.0, 10.0], [0] * 4)
    # both interior points deviate by 20; the smaller t wins either way here,
    # but a signed tie matters: +20 vs -20 deviations
    signed = CurveProfile((0.0, 0.25, 0.75, 1.0), [10.0, 30.0, -10.0 + 20.0, 10.0], [0] * 4)
    assert mode_connectivity(profile) == -20.0
    assert mode_connectivity(signed) == -20.0


def test_mode_connectivity_cross_entropy_variant():
    profile = CurveProfile((0.0, 0.5, 1.0), [0.0, 0.0, 0.0], [0.1, 2.1, 0.3])
    assert mode_connectivity(profile, use="cross_entropy") == pytest.approx(0.2 - 2.1)
    with pytest.raises(ParameterError):
        mode_connectivity(profile, use="loss")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_mode_connectivity_bounded_on_fuzzed_profiles(interior, e0, e1):
    ts = tuple([0.0] + [(i + 1) / (len(interior) + 1) for i in range(len(interior))] + [1.0])
    profile = CurveProfile(ts, [e0] + interior + [e1], [0.0] * (len(interior) + 2))
    mc = mode_connectivity(profile)
    assert -100.0 <= mc <= 100.0
    base = 0.5 * (e0 + e1)
    max_dev = max(abs(base - v) for v in [e0] + interior + [e1])
    assert abs(abs(mc) - max_dev) < 1e-9


def test_profile_requires_endpoints():
    with pytest.raises(ParameterError):
        CurveProfile((0.25, 0.5, 1.0), [1, 2, 3], [1, 2, 3])
    with pytest.raises(ParameterError):
        CurveTrainConfig(t_grid=(0.0, 0.5))


def train_stack_and_alone(spec, ends, ds, cfg, seeds, **kw):
    """Train the curves joining ``ends`` as one stack and check each against training it alone.

    A stack draws its shuffles for all curves in one array expression.
    """
    stacked = train_curve(spec, ends, ds, cfg, seeds, **kw)
    assert len(stacked) == len(ends)
    for (a, b), seed, trained in zip(ends, seeds, stacked):
        [alone] = train_curve(spec, [(a, b)], ds, cfg, [seed], **kw)
        if isinstance(alone, DivergenceError):
            assert isinstance(trained, DivergenceError) and trained.epoch == alone.epoch
            continue
        assert trained.values.shape == (cfg.k + 1, spec.param_count)
        assert np.array_equal(trained.values[0], a.values)
        assert np.array_equal(trained.values[cfg.k], b.values)
        assert np.array_equal(alone.values, trained.values)
    return stacked


def stack_pairs(count):
    spec = ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=3)
    ends = [(he_init(spec, Rng(2 * i)), he_init(spec, Rng(2 * i + 1))) for i in range(count)]
    return spec, ends, gen_blobs(n=30, num_classes=3, dim=3, spread=0.2, seed=14)


def test_stacked_curves_match_alone():
    spec, ends, ds = stack_pairs(3)
    cfg = CurveTrainConfig(epochs=6, lr=0.05, schedule=LinearDecay(2, 5, 0.1), batch_size=7, k=3)
    stacked = train_stack_and_alone(spec, ends, ds, cfg, range(30, 33), weight_decay=1e-3)
    assert not any(isinstance(c, DivergenceError) for c in stacked)


@pytest.mark.parametrize("n", [400, 1000])
def test_stacked_curves_on_lane_draws_match_scalar_alone(n):
    # two pairs of n rows: each shuffle is an array draw, and each t is
    # then a scalar draw from where its stream's shuffle stopped
    spec, ends, _ = stack_pairs(2)
    ds = gen_blobs(n=n, num_classes=3, dim=3, spread=0.2, seed=15)
    cfg = CurveTrainConfig(epochs=3, lr=0.05, schedule=None, batch_size=128)
    train_stack_and_alone(spec, ends, ds, cfg, range(40, 42))


def test_stacked_curve_divergence_leaves_the_others_training():
    # lr 1e28: pair 0 overflows in epoch 2, pairs 1 and 2 stay finite
    spec, ends, ds = stack_pairs(3)
    cfg = CurveTrainConfig(epochs=4, lr=1e28, schedule=None, batch_size=10)
    stacked = train_stack_and_alone(spec, ends, ds, cfg, range(24, 27))
    assert [isinstance(c, DivergenceError) for c in stacked] == [True, False, False]
    assert stacked[0].epoch == 2


def test_train_curve_needs_one_seed_per_pair():
    spec, ends, ds = stack_pairs(2)
    cfg = CurveTrainConfig(epochs=1, schedule=None, batch_size=10)
    for pairs, seeds in (([], []), (ends, [1]), (ends, [1, 2, 3])):
        with pytest.raises(ParameterError, match="at least one pair, and one seed per pair"):
            train_curve(spec, pairs, ds, cfg, seeds)


def test_train_curve_endpoints_must_be_single_models_of_the_spec():
    spec, a, b = make_endpoints(seed=50)
    other, c, d = make_endpoints(seed=52, spec=ModelSpec(input_dim=3, hidden_widths=(5,),
                                                         num_classes=3))
    ds = gen_blobs(n=30, num_classes=3, dim=3, spread=0.2, seed=51)
    cfg = CurveTrainConfig(epochs=1, schedule=None, batch_size=10, seed=1)
    for ends in ([(c, d)], [(a, d)]):
        with pytest.raises(DimensionError):
            train_curve(spec, ends, ds, cfg, [cfg.seed])
    stack = ParamVector(spec, np.stack([a.values, b.values]))
    with pytest.raises(DimensionError):
        train_curve(spec, [(stack, stack.copy())], ds, cfg, [cfg.seed])


def test_init_curve_rejects_a_stack_of_models():
    spec, a, b = make_endpoints(seed=54)
    stack = ParamVector(spec, np.stack([a.values, b.values]))
    with pytest.raises(DimensionError):
        init_curve(stack, stack.copy())
