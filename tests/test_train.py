import math
from dataclasses import replace

import numpy as np
import pytest

from losslab import rng as rng_module
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
    [theta], _ = sgd_train(spec, train, test, [cfg])
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
    [theta], [history] = sgd_train(spec, data, data, [cfg])
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
    [theta], _ = sgd_train(spec, train, test, [cfg])
    assert evaluate(spec, theta, train).acc == 100.0


def test_training_is_deterministic():
    train, test = tiny_task(n=48)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.05, weight_decay=5e-4, max_epochs=10,
                      plateau_eps=0.0, seed=11)
    [t1], [h1] = sgd_train(spec, train, test, [cfg])
    [t2], [h2] = sgd_train(spec, train, test, [cfg])
    assert np.array_equal(t1.values, t2.values)
    assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]


def test_zero_wd_matches_pure_sgd_replica():
    train, test = tiny_task(n=32)
    spec = ModelSpec(input_dim=4, hidden_widths=(5,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.1, weight_decay=0.0, max_epochs=4,
                      plateau_eps=0.0, seed=13)
    [theta], _ = sgd_train(spec, train, test, [cfg])

    from losslab.model import Batch, loss_grad

    rng = Rng(13)
    replica = he_init(spec, rng)
    for _ in range(4):
        for (idx,) in epoch_batches(train.n, 8, [rng]):
            _, g = loss_grad(spec, replica, Batch(train.X[idx], train.y[idx]), 0.0)
            replica.values -= 0.1 * g.values
    # sgd_train returns the best epoch; recompute which epoch that was
    # by confirming the final replica equals one recorded iterate
    [t_final], [hist] = sgd_train(spec, train, test, [cfg])
    assert np.array_equal(t_final.values, theta.values)
    if hist.best_train_loss_epoch == 3:
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
    _, [history] = sgd_train(spec, train, test, [cfg])
    assert history.stopped_by_plateau
    assert len(history.records) < 100


def test_divergence_raises_with_epoch():
    train, test = tiny_task(n=40)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=1e200, weight_decay=0.0, max_epochs=50,
                      plateau_eps=0.0, seed=2)
    [theta], [history] = sgd_train(spec, train, test, [cfg])
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
    stack = ParamVector(spec.layout(), np.stack([t.values for t in thetas]))
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


def test_checkpoint_corrupt_magic(tmp_path):
    spec = ModelSpec(input_dim=2, hidden_widths=(), num_classes=2)
    theta = ParamVector.zeros(spec)
    path = tmp_path / "model.ckpt"
    save_checkpoint(theta, spec, {}, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
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


def test_checkpoint_spec_mismatch_guard(tmp_path):
    spec8 = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    theta8 = he_init(spec8, Rng(2))
    path = tmp_path / "w8.ckpt"
    save_checkpoint(theta8, spec8, {}, path)
    loaded_theta, _, _ = load_checkpoint(path)
    spec16 = ModelSpec(input_dim=4, hidden_widths=(16,), num_classes=3)
    with pytest.raises(DimensionError):
        require_matching(spec16, loaded_theta)


def train_stack_and_alone(spec, train, test, cfgs):
    """Train ``cfgs`` as one stack and check each replicate against training it alone.

    Alone, every draw comes from the scalar loop; a stack whose shuffles
    are long enough draws them from the numpy lanes.
    """
    thetas, histories = sgd_train(spec, train, test, cfgs)
    assert len(thetas) == len(histories) == len(cfgs)
    for cfg, theta, history in zip(cfgs, thetas, histories):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "CROSSOVER", float("inf"))
            [alone], [alone_history] = sgd_train(spec, train, test, [cfg])
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
    cfgs = [replace(base, seed=s) for s in range(4)]
    _, histories = train_stack_and_alone(spec, train, test, cfgs)
    assert [len(h.records) for h in histories] == [20, 21, 19, 18]
    assert all(h.stopped_by_plateau for h in histories)
    assert len(histories.records) == 78 and histories.stopped_by_plateau == 4


def test_stacked_replicates_on_lane_draws_match_scalar_alone():
    # three replicates of 400 rows cross CROSSOVER: their shuffles come
    # from the lanes, and each epoch's starts where the last one stopped
    train, test = tiny_task(n=400)
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    base = TrainConfig(batch_size=64, lr=0.05, weight_decay=1e-3, max_epochs=3, plateau_eps=0.0)
    train_stack_and_alone(spec, train, test, [replace(base, seed=s) for s in range(3)])


def test_stacked_replicate_divergence_leaves_the_others_training():
    # at lr 1e40 the first steps kill every ReLU unit of seeds 0-2, so
    # they stay finite, while seed 3 overflows in epoch 0
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    base = TrainConfig(batch_size=8, lr=1e40, weight_decay=0.0, max_epochs=6, plateau_eps=0.0)
    cfgs = [replace(base, seed=s) for s in range(4)]
    thetas, histories = train_stack_and_alone(spec, train, test, cfgs)
    assert [isinstance(t, DivergenceError) for t in thetas] == [False, False, False, True]
    assert thetas[3].epoch == 0
    assert [len(h.records) for h in histories] == [6, 6, 6, 0]


def test_stacked_replicates_must_share_all_but_the_seed():
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfg = TrainConfig(batch_size=8, lr=0.05, max_epochs=2, seed=1)
    with pytest.raises(ParameterError):
        sgd_train(spec, train, test, [cfg, replace(cfg, seed=2, lr=0.1)])
    with pytest.raises(ParameterError):
        sgd_train(spec, train, test, [])


@pytest.mark.parametrize("base", [
    # every replicate stops on a plateau
    TrainConfig(batch_size=8, lr=0.05, weight_decay=1e-3, max_epochs=40,
                plateau_eps=1e-2, plateau_epochs=2),
    # seed 3 diverges in epoch 0; the others' best epochs (4, 1, 3) precede their last
    TrainConfig(batch_size=8, lr=1e40, weight_decay=0.0, max_epochs=6, plateau_eps=0.0),
])
def test_best_epoch_record_is_the_evaluation_of_the_returned_weights(base):
    # a cell reads its replicates' train loss and test accuracy from here
    train, test = tiny_task()
    spec = ModelSpec(input_dim=4, hidden_widths=(8,), num_classes=3)
    cfgs = [replace(base, seed=s) for s in range(4)]
    thetas, histories = train_stack_and_alone(spec, train, test, cfgs)
    assert histories.stopped_by_plateau or any(isinstance(t, DivergenceError) for t in thetas)
    for theta, history in zip(thetas, histories):
        if isinstance(theta, DivergenceError):
            continue
        best = history.records[history.best_train_loss_epoch]
        assert best.train_loss == evaluate(spec, theta, train, base.weight_decay).loss
        assert best.test_acc == evaluate(spec, theta, test).acc
