import json
import math
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab.datasets import Dataset, gen_blobs
from losslab.errors import (
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
)
from losslab.model import ModelSpec, ParamVector, evaluate, forward, he_init, require_matching
from losslab.rng import Rng
from losslab.train import (
    LinearDecay,
    TrainConfig,
    epoch_batches,
    load_checkpoint,
    save_checkpoint,
    schedule_lr,
    sgd_train,
    train_stack,
)

from oracles import count_correct_loops


def tiny_task(seed=0, n=60, c=3, d=4, spread=0.1):
    train = gen_blobs(n=n, num_classes=c, dim=d, spread=spread, seed=seed)
    test = gen_blobs(n=n // 2, num_classes=c, dim=d, spread=spread, seed=seed + 1)
    return train, test


def test_zero_lr_keeps_initialization_bits():
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(6,), num_classes=3)
    cfg = TrainConfig(batch_size=16, lr=0.0, weight_decay=0.0, max_epochs=3,
                      plateau_eps=0.0, seed=5)
    [theta], _ = sgd_train(spec, train, test, cfg, [cfg.seed])
    init = he_init(spec, Rng(5))
    assert np.array_equal(theta.values, init.values)


def test_quadratic_surrogate_matches_closed_form():
    # All-zero inputs with two balanced classes: every ReLU is off and
    # the biases stay 0, so the logits are 0 and p = 1/2 exactly.  On the
    # full batch the per-row data gradients (+-1/2 over 64 rows, a power
    # of two) cancel exactly, and SGD is gradient descent on the penalty
    # alone: theta_t = theta_0 * (1 - 2 * lr * lam) ** t.
    data = Dataset(np.zeros((64, 4)), np.tile([0, 1], 32), num_classes=2)
    spec = ModelSpec(input_dim=4, hidden_widths=(5,), num_classes=2)
    lam, lr, epochs = 0.1, 0.5, 12
    cfg = TrainConfig(batch_size=data.n, lr=lr, weight_decay=lam,
                      max_epochs=epochs, plateau_eps=0.0, seed=3)
    [theta], [history] = sgd_train(spec, data, data, cfg, [cfg.seed])
    theta0 = he_init(spec, Rng(3))
    factor = (1.0 - 2.0 * lr * lam) ** epochs
    expected = theta0.values * factor
    denom = np.abs(expected) + 1e-300
    assert np.max(np.abs(theta.values - expected) / denom) < 1e-12
    replica = theta0.values.copy()
    for _ in range(epochs):
        replica -= lr * ((2.0 * lam) * replica)
    assert np.array_equal(theta.values, replica)
    losses = [r.train_loss for r in history.records]
    assert all(b < a for a, b in zip(losses, losses[1:]))  # strict decrease
    assert losses[-1] == math.log(2.0) + lam * float(theta.values @ theta.values)


def test_blobs_reach_full_train_accuracy():
    train, test = tiny_task(n=120, spread=0.05)
    spec = ModelSpec(input_dim=4, hidden_widths=(16,), num_classes=3)
    cfg = TrainConfig(batch_size=16, lr=0.05, weight_decay=5e-4, max_epochs=150,
                      plateau_eps=1e-4, plateau_epochs=5, seed=7)
    [theta], _ = sgd_train(spec, train, test, cfg, [cfg.seed])
    assert evaluate(spec, theta, train).acc == 100.0


def test_training_is_deterministic():
    train, test = tiny_task(n=48)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.05, weight_decay=5e-4, max_epochs=10,
                      plateau_eps=0.0, seed=11)
    [t1], [h1] = sgd_train(spec, train, test, cfg, [11])
    # the seed list alone seeds the run: the config's seed is not read
    [t2], [h2] = sgd_train(spec, train, test, replace(cfg, seed=12), [11])
    assert np.array_equal(t1.values, t2.values)
    assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]


def test_zero_wd_matches_pure_sgd_replica():
    train, test = tiny_task(n=32)
    spec = ModelSpec(input_dim=4, hidden_widths=(5,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.1, weight_decay=0.0, max_epochs=4,
                      plateau_eps=0.0, seed=13)
    [theta], _ = sgd_train(spec, train, test, cfg, [cfg.seed])

    from losslab.model import Batch, loss_grad

    rng = Rng(13)
    replica = he_init(spec, rng)
    for _ in range(4):
        for (idx,) in epoch_batches(train.n, 8, [rng]):
            _, g = loss_grad(spec, replica, Batch(train.X[idx], train.y[idx]), 0.0)
            replica.values -= 0.1 * g.values
    # sgd_train returns the weights of the last epoch it ran
    assert np.array_equal(theta.values, replica.values)


def test_epoch_partition_covers_every_index_once():
    rng = Rng(1)
    for n, b in [(10, 3), (12, 4), (7, 7), (5, 8)]:
        batches = [block[0] for block in epoch_batches(n, b, [rng])]
        flat = np.concatenate(batches)
        assert np.array_equal(np.sort(flat), np.arange(n))
        assert len(batches) == (n + b - 1) // b
        assert all(len(x) == b for x in batches[:-1])


def test_plateau_stopping_fires():
    train, test = tiny_task(n=40, spread=0.05)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=40, lr=1e-6, weight_decay=0.0, max_epochs=100,
                      plateau_eps=1e-3, plateau_epochs=5, seed=1)
    _, [history] = sgd_train(spec, train, test, cfg, [cfg.seed])
    assert history.stopped_by_plateau
    assert len(history.records) < 100


def test_divergence_raises_with_epoch():
    train, test = tiny_task(n=40)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=1e200, weight_decay=0.0, max_epochs=50,
                      plateau_eps=0.0, seed=2)
    [theta], [history] = sgd_train(spec, train, test, cfg, [cfg.seed])
    assert isinstance(theta, DivergenceError)
    assert theta.epoch == 0 and history.records == []


def test_linear_decay_schedule_values():
    sched = LinearDecay(start_epoch=25, end_epoch=45, final_fraction=0.01)
    assert schedule_lr(10, 0.01, sched) == 0.01
    assert abs(schedule_lr(45, 0.01, sched) - 0.01 * 0.01) < 1e-18
    assert abs(schedule_lr(60, 0.01, sched) - 0.01 * 0.01) < 1e-18
    mid = schedule_lr(35, 0.01, sched)
    assert abs(mid - 0.505 * 0.01) < 1e-15
    with pytest.raises(ParameterError):
        LinearDecay(start_epoch=45, end_epoch=45, final_fraction=0.01)
    # without a schedule every epoch runs at the base rate
    assert [schedule_lr(e, 0.01, None) for e in (0, 35, 60)] == [0.01] * 3


def test_evaluate_zero_theta_argmax_ties_to_class_zero():
    ds = gen_blobs(n=100, num_classes=4, dim=2, spread=0.1, seed=3)
    spec = ModelSpec(input_dim=2, hidden_widths=(3,), num_classes=4)
    theta = ParamVector.zeros(spec)
    res = evaluate(spec, theta, ds)
    class0_freq = float(np.mean(ds.y == 0))
    assert res.acc == 100.0 * class0_freq


def test_evaluate_perfect_logits():
    # identity map on one-hot features classifies perfectly
    spec = ModelSpec(input_dim=3, hidden_widths=(), num_classes=3)
    theta = ParamVector.zeros(spec)
    w, _ = theta.views()[0]
    w[...] = np.eye(3)
    ds = Dataset(np.eye(3), np.arange(3), 3)
    assert evaluate(spec, theta, ds).acc == 100.0


def test_evaluate_matches_loop_oracle():
    ds = gen_blobs(n=80, num_classes=3, dim=4, spread=0.4, seed=4)
    spec = ModelSpec(input_dim=4, hidden_widths=(6,), num_classes=3)
    theta = he_init(spec, Rng(9))
    res = evaluate(spec, theta, ds)
    logits = forward(spec, theta, ds.X)
    assert res.acc == 100.0 * count_correct_loops(logits, ds.y) / ds.n


def test_stacked_evaluate_is_each_model_alone():
    train, _ = tiny_task(n=300)
    spec = ModelSpec(input_dim=4, hidden_widths=(8, 5), num_classes=3)
    thetas = [he_init(spec, Rng(s)) for s in range(3)]
    stack = ParamVector(spec, np.stack([t.values for t in thetas]))
    stacked = evaluate(spec, stack, train, weight_decay=1e-3)
    for i, theta in enumerate(thetas):
        alone = evaluate(spec, theta, train, weight_decay=1e-3)
        assert (stacked.loss[i], stacked.acc[i]) == (alone.loss, alone.acc)
        logits = forward(spec, theta, train.X)
        assert alone.acc == pytest.approx(100.0 * count_correct_loops(logits.tolist(), train.y.tolist()) / train.n)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    spec = ModelSpec(input_dim=4, hidden_widths=(8, 5), num_classes=3)
    theta = he_init(spec, Rng(21))
    meta = {"purpose": "roundtrip", "seed": 21}
    path = tmp_path / "model.ckpt"
    save_checkpoint(theta, spec, meta, path)
    loaded_theta, loaded_spec, loaded_meta = load_checkpoint(path)
    assert loaded_spec == spec
    assert np.array_equal(loaded_theta.values, theta.values)
    assert loaded_meta == meta


def test_checkpoint_of_another_schema(tmp_path):
    spec = ModelSpec(input_dim=2, hidden_widths=(), num_classes=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ParamVector.zeros(spec), spec, {}, path)
    ckpt = json.loads(path.read_text())
    for schema in (2, 0, 1.0, "1", True, None):
        path.write_text(json.dumps(dict(ckpt, schema=schema)))
        with pytest.raises(FormatError, match="model.ckpt: expected schema 1"):
            load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    spec = ModelSpec(input_dim=2, hidden_widths=(4,), num_classes=2)
    theta = he_init(spec, Rng(1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(theta, spec, {"k": 1}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _edit(change):
    """The checkpoint edit that applies ``change`` to the parsed object."""
    def edit(blob):
        ckpt = json.loads(blob)
        change(ckpt)
        return json.dumps(ckpt).encode()
    return edit


def _first_value(token: bytes):
    """The checkpoint edit that makes ``token`` the text of the first value."""
    def edit(blob):
        ckpt = json.loads(blob)
        ckpt["values"][0] = "FIRST"
        return json.dumps(ckpt).encode().replace(b'"FIRST"', token)
    return edit


# edits of a checkpoint of 2 -> 4 -> 2 saved with meta {}, and the start
# of the reason given after the file name
MALFORMED_CHECKPOINTS = {
    "meta not utf-8": (lambda blob: blob.replace(b'"meta": {}', b'"meta": "\xff\xfe"'),
                       "'utf-8' codec can't decode"),
    "meta not json": (lambda blob: blob.replace(b'"meta": {}', b'"meta": {]'), "Expecting"),
    "meta not an object": (_edit(lambda c: c.update(meta=[1])), "meta must be an object"),
    "hidden width 0": (_edit(lambda c: c["model"].update(hidden_widths=[0])),
                       "model: all hidden widths must be >= 1"),
    "model key unknown": (_edit(lambda c: c["model"].update(depth=1)), "model.depth: unknown"),
    "trailing bytes": (lambda blob: blob + b"\x00", "Extra data"),
    "not an object": (lambda blob: b"[" + blob + b"]", "not a JSON object"),
    "key missing": (_edit(lambda c: c.pop("meta")), "keys ['model', 'schema', 'values'] are not"),
    "key unknown": (_edit(lambda c: c.update(version=1)),
                    "keys ['meta', 'model', 'schema', 'values', 'version'] are not"),
    "value NaN": (_first_value(b"NaN"), "non-finite value NaN"),
    "value Infinity": (_first_value(b"-Infinity"), "non-finite value -Infinity"),
    "value overflows": (_first_value(b"1e999"), "non-finite value 1e999"),
    "value a string": (_first_value(b'"0.5"'), "values must be a list of floats"),
    "value a bool": (_first_value(b"true"), "values must be a list of floats"),
    "value an integer": (_first_value(b"0"), "values must be a list of floats"),
    "value a list": (_first_value(b"[0.5]"), "values must be a list of floats"),
    "value missing": (_edit(lambda c: c["values"].pop()), "value shape (21,) does not match"),
    "value extra": (_edit(lambda c: c["values"].append(0.5)), "value shape (23,) does not match"),
    "values not a list": (_edit(lambda c: c.update(values={})), "values must be a list of floats"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_a_format_error_naming_the_file(tmp_path, name):
    spec = ModelSpec(input_dim=2, hidden_widths=(4,), num_classes=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(he_init(spec, Rng(1)), spec, {}, path)
    edit, reason = MALFORMED_CHECKPOINTS[name]
    blob = path.read_bytes()
    assert edit(blob) != blob
    path.write_bytes(edit(blob))
    with pytest.raises(FormatError, match=re.escape(f"model.ckpt: {reason}")):
        load_checkpoint(path)


def test_a_checkpoint_is_one_json_object(tmp_path):
    spec = ModelSpec(input_dim=2, hidden_widths=(3,), num_classes=2)
    theta = he_init(spec, Rng(5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(theta, spec, {"seed": 5}, path)
    assert json.loads(path.read_text()) == {
        "schema": 1, "model": {"input_dim": 2, "hidden_widths": [3], "num_classes": 2},
        "values": theta.values.tolist(), "meta": {"seed": 5}}


# every float64 JSON can hold: signed zeros, subnormals, the extremes
FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, sys.float_info.max, -sys.float_info.max]),
)


@st.composite
def spec_and_values(draw):
    spec = ModelSpec(input_dim=draw(st.integers(1, 3)),
                     hidden_widths=tuple(draw(st.lists(st.integers(1, 3), max_size=2))),
                     num_classes=draw(st.integers(2, 3)))
    values = draw(st.lists(FLOAT64, min_size=spec.param_count, max_size=spec.param_count))
    return spec, np.array(values, dtype=np.float64)


@settings(max_examples=100, deadline=None)
@given(case=spec_and_values(),
       meta=st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4)),
                            max_size=3))
def test_checkpoint_round_trip_is_bitwise(case, meta):
    spec, values = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(ParamVector(spec, values), spec, meta, path)
        theta, loaded_spec, loaded_meta = load_checkpoint(path)
    assert loaded_spec == spec and loaded_meta == meta
    assert theta.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()


def test_checkpoint_spec_mismatch_guard(tmp_path):
    spec8 = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    theta8 = he_init(spec8, Rng(2))
    path = tmp_path / "w8.ckpt"
    save_checkpoint(theta8, spec8, {}, path)
    loaded_theta, _, _ = load_checkpoint(path)
    spec16 = ModelSpec(input_dim=4, hidden_widths=(16,), num_classes=3)
    with pytest.raises(DimensionError):
        require_matching(spec16, loaded_theta)


def train_stack_and_alone(spec, train, test, cfg, seeds):
    """Train ``seeds`` as one stack and check each replicate against training it alone.

    A stack draws its shuffles for all replicates in one array expression.
    """
    thetas, histories = sgd_train(spec, train, test, cfg, seeds)
    assert len(thetas) == len(histories) == len(seeds)
    for seed, theta, history in zip(seeds, thetas, histories):
        [alone], [alone_history] = sgd_train(spec, train, test, cfg, [seed])
        if isinstance(alone, DivergenceError):
            assert isinstance(theta, DivergenceError) and theta.epoch == alone.epoch
            continue
        assert np.array_equal(theta.values, alone.values)
        assert history == alone_history
    return thetas, histories


def test_stacked_replicates_stop_on_plateau_at_their_own_epochs():
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    base = TrainConfig(batch_size=8, lr=0.05, weight_decay=0.0, max_epochs=40,
                       plateau_eps=1e-2, plateau_epochs=2)
    _, histories = train_stack_and_alone(spec, train, test, base, range(4))
    assert [len(h.records) for h in histories] == [16, 13, 22, 21]
    assert all(h.stopped_by_plateau for h in histories)
    assert len(histories.records) == 72 and histories.stopped_by_plateau == 4


def test_stacked_replicates_on_lane_draws_match_scalar_alone():
    # three replicates of 400 rows: each epoch's shuffle starts where the
    # last one stopped
    train, test = tiny_task(n=400)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    base = TrainConfig(batch_size=64, lr=0.05, weight_decay=1e-3, max_epochs=3, plateau_eps=0.0)
    train_stack_and_alone(spec, train, test, base, range(3))


def test_stacked_replicate_divergence_leaves_the_others_training():
    # at lr 1e40 seeds 9-11 stay finite, while seed 12 overflows in epoch 0
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    base = TrainConfig(batch_size=8, lr=1e40, weight_decay=0.0, max_epochs=6, plateau_eps=0.0)
    thetas, histories = train_stack_and_alone(spec, train, test, base, range(9, 13))
    assert [isinstance(t, DivergenceError) for t in thetas] == [False, False, False, True]
    assert thetas[3].epoch == 0
    assert [len(h.records) for h in histories] == [6, 6, 6, 0]


def test_train_stack_keeps_each_row_in_its_own_slot():
    # row r of the stack holds r in its first column, and the epoch
    # function adds lr to the others.  Row 0 stops in epoch 0; in epoch 1
    # row 2 stops with a result, row 3 diverges and rows 1 and 4 go on
    spec = ModelSpec(input_dim=1, hidden_widths=(), num_classes=2)  # P = 4
    cfg = TrainConfig(batch_size=4, lr=0.5)
    rngs = [Rng(10 + r) for r in range(5)]
    stops = {(0, 0): object(), (1, 2): object()}
    seen, verdicts = [], []

    def run_epoch(values, blocks, stack_rngs, lr):
        epoch = len(seen)
        rows = values[:, 0].tolist()
        seen.append(rows)
        assert [rng.seed - 10 for rng in stack_rngs] == rows
        assert [b.shape for b in blocks] == [(len(rows), 4), (len(rows), 2)]
        values[:, 1:] += lr
        return ~((values[:, 0] == 3) & (epoch == 1))

    def verdict(epoch, values, live, lr):
        verdicts.append(live)
        assert all(values[i, 0] == r for i, r in live)
        return [stops.get((epoch, r)) for _, r in live]

    state = np.repeat(np.arange(5.0)[:, None], spec.param_count, axis=1)
    results = train_stack(spec, state, rngs, 6, cfg, 4, run_epoch, verdict)
    assert seen == [[0, 1, 2, 3, 4], [1, 2, 3, 4], [1, 4], [1, 4]]
    assert verdicts[1] == [(0, 1), (1, 2), (3, 4)]
    assert verdicts[2:] == [[(0, 1), (1, 4)]] * 2
    assert results[0] is stops[0, 0] and results[2] is stops[1, 2]
    assert isinstance(results[3], DivergenceError) and results[3].epoch == 1
    for r in (1, 4):
        assert isinstance(results[r], ParamVector) and results[r].spec == spec
        assert results[r].values.tolist() == [r, r + 2.0, r + 2.0, r + 2.0]


def test_train_stack_of_no_epochs_returns_the_initial_rows_and_draws_nothing():
    # train_curve at k = 1 has no bends to train
    spec = ModelSpec(input_dim=1, hidden_widths=(), num_classes=2)
    rngs = [Rng(1), Rng(2)]
    state = np.arange(8.0).reshape(2, 4)

    def never(*args):
        raise AssertionError("called at epochs = 0")

    results = train_stack(spec, state.copy(), rngs, 6, TrainConfig(), 0, never, never)
    assert [theta.values.tolist() for theta in results] == state.tolist()
    assert [rng.uniforms(3).tolist() for rng in rngs] == [
        Rng(seed).uniforms(3).tolist() for seed in (1, 2)]


def test_sgd_train_needs_a_seed():
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    with pytest.raises(ParameterError, match="at least one seed"):
        sgd_train(spec, train, test, TrainConfig(batch_size=8, max_epochs=2), [])


@pytest.mark.parametrize("base", [
    # every replicate stops on a plateau
    TrainConfig(batch_size=8, lr=0.05, weight_decay=1e-3, max_epochs=40,
                plateau_eps=1e-2, plateau_epochs=2),
    # seed 12 diverges in epoch 0; the others' lowest losses (epoch 4) precede their last
    TrainConfig(batch_size=8, lr=1e40, weight_decay=0.0, max_epochs=6, plateau_eps=0.0),
])
def test_last_record_is_the_evaluation_of_the_returned_weights(base):
    # a cell reads its replicates' train loss and test accuracy from here
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    thetas, histories = train_stack_and_alone(spec, train, test, base, range(9, 13))
    assert histories.stopped_by_plateau or any(isinstance(t, DivergenceError) for t in thetas)
    for theta, history in zip(thetas, histories):
        if isinstance(theta, DivergenceError):
            continue
        last = history.records[-1]
        assert last.train_loss == evaluate(spec, theta, train, base.weight_decay).loss
        assert last.test_acc == evaluate(spec, theta, test).acc


def test_a_flat_loss_stops_on_its_plateau():
    # at lr 0 every epoch's loss equals epoch 0's, so the window of 3
    # changes first fills at the fourth record
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.0, weight_decay=1e-3, max_epochs=20,
                      plateau_eps=1e-3, plateau_epochs=3)
    [theta], [history] = sgd_train(spec, train, test, cfg, [5])
    assert len(history.records) == 4 and history.stopped_by_plateau
    assert len({r.train_loss for r in history.records}) == 1
    assert np.array_equal(theta.values, he_init(spec, Rng(5)).values)


def plateau_window_holds(losses, e, eps, k):
    """Whether each of the k loss changes up to record e is below eps."""
    return e >= k and all(abs(losses[j + 1] - losses[j]) < eps for j in range(e - k, e))


@pytest.mark.parametrize("lr,eps,k", [
    (0.05, 1e-2, 2),  # every replicate stops on a plateau
    (0.05, 3e-3, 4),  # seed 9 stops at the last allowed epoch; the others hit the ceiling
    (0.2, 1e-2, 1),  # a window of one change
    (1e40, 1e-2, 2),  # seed 12 diverges in epoch 0
])
def test_each_history_follows_the_plateau_rule(lr, eps, k):
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=lr, weight_decay=0.0, max_epochs=25,
                      plateau_eps=eps, plateau_epochs=k)
    thetas, histories = sgd_train(spec, train, test, cfg, range(9, 13))
    for theta, history in zip(thetas, histories):
        losses = [r.train_loss for r in history.records]
        assert [r.epoch for r in history.records] == list(range(len(losses)))
        windows = [plateau_window_holds(losses, e, eps, k) for e in range(len(losses))]
        assert history.stopped_by_plateau == any(windows) and not any(windows[:-1])
        if not (history.stopped_by_plateau or isinstance(theta, DivergenceError)):
            assert len(losses) == cfg.max_epochs
