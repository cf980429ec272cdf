import copy
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from losslab.datasets import gen_blobs
from losslab.errors import DimensionError, ParameterError
from losslab.model import (
    Batch,
    HessianOperator,
    ModelSpec,
    ParamVector,
    evaluate,
    exact_hessian,
    forward,
    he_init,
    hvp,
    loss_grad,
)
from losslab.rng import Rng

from conftest import (
    penalty_only_instance,
    random_instance,
    smooth_grad_instance,
    smooth_hvp_instance,
)
from oracles import (
    central_diff_grad,
    central_diff_hvp,
    exact_trace_stacked,
    hvp_full_pass,
    integer_loop,
    jacobi_eigenvalues,
    mlp_forward_loops,
)


def small_net(seed=0, widths=(5,), d=3, c=3, batch=8):
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    dr = r.split("data")
    x = dr.normals(batch * d).reshape(batch, d)
    y = np.array([integer_loop(dr, c) for _ in range(batch)], dtype=np.int64)
    return spec, theta, Batch(x, y)


def test_param_count_and_layout():
    spec = ModelSpec(input_dim=4, hidden_widths=(8, 3), num_classes=2)
    assert spec.param_count == 4 * 8 + 8 + 8 * 3 + 3 + 3 * 2 + 2
    theta = ParamVector(spec, np.arange(spec.param_count, dtype=np.float64))
    views = theta.views()
    shapes = [(w.shape, b.shape) for w, b in views]
    assert shapes == [((4, 8), (8,)), ((8, 3), (3,)), ((3, 2), (2,))]
    # the views tile the flat vector: each layer's weight, then its bias
    tiles = [part.ravel() for w, b in views for part in (w, b)]
    assert np.array_equal(np.concatenate(tiles), theta.values)


def test_flatten_unflatten_roundtrip_bit_exact():
    spec = ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=2)
    theta = he_init(spec, Rng(5))
    flat_again = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in theta.views()])
    assert np.array_equal(flat_again, theta.values)


def test_zero_theta_zero_logits():
    spec, _, batch = small_net()
    theta = ParamVector.zeros(spec)
    assert np.all(forward(spec, theta, batch.X) == 0.0)


def test_identity_single_layer_is_identity():
    spec = ModelSpec(input_dim=3, hidden_widths=(), num_classes=3)
    theta = ParamVector.zeros(spec)
    w, b = theta.views()[0]
    w[...] = np.eye(3)
    x = Rng(2).normals(12).reshape(4, 3)
    assert np.array_equal(forward(spec, theta, x), x)


def test_forward_matches_loop_oracle():
    spec, theta, batch = small_net(seed=3, widths=(6, 4), d=5, c=3, batch=7)
    logits = forward(spec, theta, batch.X)
    pairs = [(w.tolist(), b.tolist()) for w, b in theta.views()]
    for i in range(batch.size):
        ref = mlp_forward_loops(pairs, batch.X[i])
        assert np.allclose(logits[i], ref, rtol=1e-12, atol=1e-12)


def test_forward_shape_errors():
    spec, theta, batch = small_net()
    with pytest.raises(DimensionError):
        forward(spec, theta, np.zeros((4, spec.input_dim + 1)))
    other = ModelSpec(input_dim=spec.input_dim, hidden_widths=(9,), num_classes=3)
    with pytest.raises(DimensionError):
        forward(other, theta, batch.X)


def test_zero_theta_loss_is_log_c():
    for c in (2, 3, 7):
        spec = ModelSpec(input_dim=4, hidden_widths=(3,), num_classes=c)
        theta = ParamVector.zeros(spec)
        x = Rng(1).normals(20).reshape(5, 4)
        y = np.zeros(5, dtype=np.int64)
        loss, _ = loss_grad(spec, theta, Batch(x, y), weight_decay=0.0)
        assert abs(loss - math.log(c)) < 1e-12


def test_regularizer_gradient_vanishes_at_origin():
    # with the data term exactly zero, the loss and gradient are the
    # penalty's alone: wd * ||theta||^2 and 2 * wd * theta, which vanish
    # at the origin and for wd = 0
    spec, theta, batch = penalty_only_instance()
    loss, grad = loss_grad(spec, theta, batch, weight_decay=0.0)
    assert loss == 0.0
    assert np.all(grad.values == 0.0)
    wd = 0.7
    loss, grad = loss_grad(spec, theta, batch, weight_decay=wd)
    assert loss == wd * float(theta.values @ theta.values)
    assert np.array_equal(grad.values, (2.0 * wd) * theta.values)


def test_empty_batch_rejected():
    spec, theta, _ = small_net()
    empty = Batch(np.zeros((0, spec.input_dim)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ParameterError):
        loss_grad(spec, theta, empty, weight_decay=0.0)


def grad_flat(spec, batch, wd, values):
    theta = ParamVector(spec, values)
    return loss_grad(spec, theta, batch, wd)[1].values


def test_gradient_matches_central_differences():
    for trial in range(10):
        spec, theta, batch = smooth_grad_instance(1000 + 50 * trial, h=1e-5)
        wd = 0.0 if trial % 2 == 0 else 1e-3
        _, grad = loss_grad(spec, theta, batch, wd)

        def f(values):
            return loss_grad(spec, ParamVector(spec, values), batch, wd)[0]

        fd = central_diff_grad(f, theta.values, h=1e-5)
        assert np.allclose(grad.values, fd, rtol=1e-6, atol=1e-9), trial


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_one_model_loss_grad_is_its_row_in_a_stack(wd):
    for seed in range(60):
        spec, theta, batch = random_instance(seed)
        # two more models of the same spec, each on its own minibatch
        others = [he_init(spec, Rng(seed).split("stack", k)) for k in (1, 2)]
        stack = ParamVector(spec, np.stack([theta.values] + [t.values for t in others]))
        X = np.stack([batch.X, batch.X[::-1], 0.5 * batch.X])
        y = np.stack([batch.y, batch.y[::-1], batch.y])
        out = ParamVector(spec, np.empty_like(stack.values))
        losses, grads = loss_grad(spec, stack, Batch(X, y), wd, out)
        assert grads is out
        for r, model in enumerate([theta] + others):
            loss, grad = loss_grad(spec, model, Batch(X[r], y[r]), wd)
            assert isinstance(loss, float)
            assert loss == losses[r], (seed, r)
            assert grad.values.tobytes() == grads.values[r].tobytes(), (seed, r)


def test_softmax_shift_invariance():
    spec, theta, batch = small_net(seed=9)
    loss0, grad0 = loss_grad(spec, theta, batch, weight_decay=0.0)
    shifted = theta.copy()
    w_last, b_last = shifted.views()[-1]
    b_last += 13.5  # same constant added to every logit
    loss1, _ = loss_grad(spec, shifted, batch, weight_decay=0.0)
    assert abs(loss0 - loss1) < 1e-12
    # data-term gradient w.r.t. everything below the logit shift is unchanged
    _, grad1 = loss_grad(spec, shifted, batch, weight_decay=0.0)
    n_last = w_last.size + b_last.size
    assert np.allclose(grad0.values[:-n_last], grad1.values[:-n_last], atol=1e-12)


def test_hvp_zero_vector():
    spec, theta, batch = small_net()
    v = ParamVector.zeros(spec)
    out = hvp(spec, theta, batch, weight_decay=0.3, v=v)
    assert np.all(out.values == 0.0)


def test_hvp_pure_quadratic_penalty():
    # the data term's Hessian is exactly zero, so H v = 2 * wd * v bitwise
    spec, theta, batch = penalty_only_instance(seed=4)
    r = Rng(77)
    v = ParamVector(spec, r.normals(spec.param_count))
    assert np.all(hvp(spec, theta, batch, weight_decay=0.0, v=v).values == 0.0)
    lam = 0.1
    out = hvp(spec, theta, batch, weight_decay=lam, v=v)
    assert np.array_equal(out.values, 0.2 * v.values)


def test_hvp_matches_finite_difference_of_gradients():
    for trial in range(10):
        spec, theta, batch, v_flat = smooth_hvp_instance(2000 + 50 * trial, h=1e-4)
        wd = 5e-4
        v = ParamVector(spec, v_flat)
        hv = hvp(spec, theta, batch, wd, v).values

        def g(values):
            return grad_flat(spec, batch, wd, values)

        fd = central_diff_hvp(g, theta.values, v.values, h=1e-4)
        assert np.allclose(hv, fd, rtol=1e-4, atol=1e-8), trial


def test_hvp_symmetry_and_linearity():
    for trial in range(5):
        spec, theta, batch = random_instance(seed=3000 + trial)
        r = Rng(400 + trial)
        u = ParamVector(spec, r.normals(spec.param_count))
        v = ParamVector(spec, r.normals(spec.param_count))
        hu = hvp(spec, theta, batch, 1e-3, u).values
        hv = hvp(spec, theta, batch, 1e-3, v).values
        lhs = float(v.values @ hu)
        rhs = float(u.values @ hv)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) < 1e-8

        a, b = 0.7, -1.3
        combo = ParamVector(spec, a * u.values + b * v.values)
        h_combo = hvp(spec, theta, batch, 1e-3, combo).values
        ref = a * hu + b * hv
        scale = float(np.linalg.norm(ref)) + 1e-30
        assert float(np.linalg.norm(h_combo - ref)) / scale < 1e-10


def test_hvp_layout_mismatch():
    # the second pair has one parameter count, P = 26: a size check would pass it
    for (d, widths, c), other in [((3, (5,), 3), (3, (9,), 3)), ((3, (4,), 2), (5, (3,), 2))]:
        spec, theta, batch = small_net(widths=widths, d=d, c=c)
        with pytest.raises(DimensionError):
            hvp(spec, theta, batch, 0.0, ParamVector.zeros(ModelSpec(*other)))


def test_exact_hessian_symmetric_and_consistent():
    spec, theta, batch = small_net(seed=6, widths=(4,), d=3, c=3)
    h = exact_hessian(spec, theta, batch, weight_decay=1e-3)
    assert np.linalg.norm(h - h.T) / np.linalg.norm(h) < 1e-8
    diag_sum = 0.0
    basis = ParamVector.zeros(spec)
    for j in range(spec.param_count):
        basis.values[:] = 0.0
        basis.values[j] = 1.0
        diag_sum += hvp(spec, theta, batch, 1e-3, basis).values[j]
    assert abs(np.trace(h) - diag_sum) < 1e-12 * max(1.0, abs(diag_sum))


def test_exact_hessian_eigenvalues_match_jacobi_oracle():
    # ~50-parameter net: 3 -> 5 -> 4 gives 3*5+5+5*4+4 = 44
    spec, theta, batch = small_net(seed=8, widths=(5,), d=3, c=4)
    h = exact_hessian(spec, theta, batch, weight_decay=1e-3)
    h = 0.5 * (h + h.T)
    dense = np.linalg.eigvalsh(h)
    jac = jacobi_eigenvalues(h)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(dense - jac)) / scale < 1e-8


def test_exact_hessian_guard():
    spec = ModelSpec(input_dim=100, hidden_widths=(100,), num_classes=10)
    theta = ParamVector.zeros(spec)
    batch = Batch(np.zeros((2, 100)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ParameterError):
        exact_hessian(spec, theta, batch, 0.0)


def test_layout_built_once_and_views_alias_values():
    spec = ModelSpec(input_dim=4, hidden_widths=(8, 3), num_classes=2)
    theta = ParamVector(spec, np.arange(spec.param_count, dtype=np.float64))
    assert theta.spec is spec
    assert theta.views() is theta.views()
    for w, b in theta.views():
        assert np.shares_memory(w, theta.values) and np.shares_memory(b, theta.values)
    theta.views()[1][1][...] = -1.0
    assert np.array_equal(theta.values[64:67], [-1.0, -1.0, -1.0])


def test_copies_keep_views_aliasing_their_own_buffer():
    spec = ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=2)
    theta = he_init(spec, Rng(3))
    for other in (theta.copy(), copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert np.array_equal(other.values, theta.values)
        other.views()[0][0][...] = 0.0
        assert not np.any(other.values[:12]) and np.any(theta.values[:12])


def test_param_vector_length_must_match_layout():
    spec = ModelSpec(input_dim=3, hidden_widths=(4,), num_classes=2)
    with pytest.raises(DimensionError):
        ParamVector(spec, np.zeros(spec.param_count + 1))


# Pinned before the Hessian operator replaced hvp's per-call primal passes:
# sha256 of the little-endian float64 bytes of every output, in order.
HVP_GOLDEN_SHA256 = "c3047a960057e64dc650b4801c9a4ac525f6e438261a3b89e172833b39ec4666"
EXACT_HESSIAN_GOLDEN_SHA256 = {
    "random_instance(21)": "dddbc596e35ebde7e476ab3b98cf47a91c6f1256fcc55a9062d2ad8c162ddae0",
    "8-16-4/B64": "f193f3ef350575568c02b299237c128f222e9df674914158b84c9a2d23e20285",
}


def golden_vectors(spec, seed):
    """One Gaussian, one Rademacher and one basis direction per instance."""
    r = Rng(seed).split("golden_vectors")
    p = spec.param_count
    basis = np.zeros(p)
    basis[seed % p] = 1.0
    return [r.normals(p), r.rademacher(p), basis]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_hvp_outputs_match_pinned_digest():
    outputs = []
    for seed in range(40):
        spec, theta, batch = random_instance(seed)
        wd = 0.0 if seed % 2 else 5e-4
        for v in golden_vectors(spec, seed):
            outputs.append(hvp(spec, theta, batch, wd, ParamVector(spec, v)).values)
    assert digest(outputs) == HVP_GOLDEN_SHA256


@pytest.mark.parametrize("name,instance", [
    ("random_instance(21)", lambda: random_instance(21)),
    ("8-16-4/B64", lambda: small_net(seed=3, widths=(16,), d=8, c=4, batch=64)),
])
def test_exact_hessian_matches_pinned_digest(name, instance):
    spec, theta, batch = instance()
    assert digest([exact_hessian(spec, theta, batch, 5e-4)]) == EXACT_HESSIAN_GOLDEN_SHA256[name]


@pytest.mark.parametrize("dims,rows", [
    ((8, 16, 4), 200), ((8, 2, 4), 200),
    ((8, 16, 16, 4), 1000), ((8, 24, 24, 4), 1000), ((8, 32, 32, 4), 1000),
])
def test_operator_equals_the_full_pass_bitwise(dims, rows):
    spec, theta, batch = small_net(rows + dims[1], dims[1:-1], dims[0], dims[-1], rows)
    op = HessianOperator(spec, theta, batch, 5e-4)
    r = Rng(dims[1]).split("directions")
    for k in range(20):
        v = ParamVector(spec, r.normals(spec.param_count) if k % 2
                        else r.rademacher(spec.param_count))
        ref = hvp_full_pass(theta.views(), v.views(), batch.X, batch.y, 5e-4)
        assert np.array_equal(op.apply(v), ref), k


def test_operator_applications_do_not_depend_on_earlier_ones():
    spec, theta, batch = small_net(seed=1, widths=(6, 5), d=4, c=3, batch=40)
    # at wd 0 nothing is added to the tangent passes' output buffer
    op = HessianOperator(spec, theta, batch, 0.0)
    r = Rng(9)
    v1, v2 = (ParamVector(spec, r.normals(spec.param_count)) for _ in range(2))
    first = hvp(spec, op, batch, 0.0, v1).values
    held = first.copy()
    second = hvp(spec, op, batch, 0.0, v2).values
    again = hvp(spec, op, batch, 0.0, v1).values
    assert np.array_equal(first, held)  # the result is not a view of a workspace
    assert np.array_equal(again, first)
    assert np.array_equal(second, hvp(spec, theta, batch, 0.0, v2).values)


def test_operator_does_not_see_later_edits_of_theta():
    spec, theta, batch = small_net(seed=2, widths=(6,), d=4, c=3, batch=20)
    v = ParamVector(spec, Rng(3).normals(spec.param_count))
    op = HessianOperator(spec, theta, batch, 1e-3)
    before = op.apply(v)
    theta.values *= 3.0
    assert np.array_equal(op.apply(v), before)


def test_operator_of_a_zero_hessian_returns_exact_zeros():
    spec, theta, batch = penalty_only_instance(seed=4)
    op = HessianOperator(spec, theta, batch, 0.0)
    for seed in range(3):
        v = ParamVector(spec, Rng(seed).normals(spec.param_count))
        assert np.all(op.apply(v) == 0.0)


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_trace_after_applications_equals_a_fresh_operators(wd):
    # the trace reads the cached primal pass, which lives beside apply's workspaces
    for seed in range(30):
        spec, theta, batch = random_instance(seed)
        op = HessianOperator(spec, theta, batch, wd)
        r = Rng(seed).split("directions")
        for _ in range(3):
            op.apply(ParamVector(spec, r.normals(spec.param_count)))
        value = op.trace()
        assert value == HessianOperator(spec, theta, batch, wd).trace(), seed
        exact = float(np.trace(exact_hessian(spec, theta, batch, wd)))
        assert abs(value - exact) <= 1e-12 * abs(exact), seed


def _wide_instance(widths, c, rows=1000):
    r = Rng(0)
    spec = ModelSpec(input_dim=8, hidden_widths=widths, num_classes=c)
    X = r.split("X").normals(rows * 8).reshape(rows, 8)
    y = r.split("y").choose(rows, rows) % c
    return spec, he_init(spec, r.split("theta")), Batch(X, y)


@pytest.mark.parametrize("wd", [0.0, 5e-4])
@pytest.mark.parametrize("hidden_layers", [1, 2, 3])
@pytest.mark.parametrize("c", [2, 4, 10])
def test_streamed_trace_equals_the_stacked_formula_bit_for_bit(c, hidden_layers, wd):
    # one class at a time into a zero sum adds in the stacked einsum's order,
    # except on one row, where the einsum folds the class and unit axes into
    # one sum and so adds in another order: there the two agree to a few ulp
    for seed in range(10):
        spec, theta, batch = random_instance(seed, hidden_layers=hidden_layers, num_classes=c)
        ref = exact_trace_stacked(theta.views(), batch.X, wd)
        value = HessianOperator(spec, theta, batch, wd).trace()
        if batch.size == 1:
            assert abs(value - ref) <= 8 * math.ulp(ref), seed
        else:
            assert value.hex() == ref.hex(), seed
    spec, theta, batch = _wide_instance((32,) * hidden_layers, c)
    ref = exact_trace_stacked(theta.views(), batch.X, wd)
    assert HessianOperator(spec, theta, batch, wd).trace().hex() == ref.hex()


@pytest.mark.parametrize("c", [4, 10])
def test_trace_memory_does_not_grow_with_the_class_count(c):
    """The trace holds about two (rows, width) arrays at its peak, whatever C is."""
    spec, theta, batch = _wide_instance((32, 32), c)
    op = HessianOperator(spec, theta, batch, 5e-4)
    op.trace()  # anything numpy sets up on a first call is not counted
    one_array = batch.size * 32 * batch.X.itemsize
    tracemalloc.start()
    try:
        op.trace()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * one_array


def test_operator_keeps_only_what_it_reads():
    """Building an operator and one apply hold under eight (rows, width) arrays at their peak."""
    spec, theta, batch = _wide_instance((32, 32), 4)
    v = ParamVector(spec, Rng(1).normals(spec.param_count))
    HessianOperator(spec, theta, batch, 5e-4).apply(v)  # numpy's first-call setup is not counted
    one_array = batch.size * 32 * batch.X.itemsize
    tracemalloc.start()
    try:
        HessianOperator(spec, theta, batch, 5e-4).apply(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * one_array


def test_operator_checks_shapes_once_at_construction():
    spec, theta, batch = small_net()
    with pytest.raises(DimensionError, match="input dimension"):
        HessianOperator(spec, theta, Batch(batch.X[:, :2], batch.y), 0.0)
    with pytest.raises(DimensionError, match="labels"):
        HessianOperator(spec, theta, Batch(batch.X, np.full(batch.size, spec.num_classes)), 0.0)
    with pytest.raises(ParameterError):
        HessianOperator(spec, theta, Batch(np.zeros((0, spec.input_dim)), np.zeros(0)), 0.0)
    op = HessianOperator(spec, theta, batch, 0.0)
    with pytest.raises(ParameterError, match="built for another"):
        hvp(spec, op, small_net()[2], 0.0, ParamVector.zeros(spec))


def test_forward_allocates_one_array_per_layer():
    """A forward pass holds about one (rows, width) array per layer at its peak."""
    r = Rng(0)
    spec = ModelSpec(input_dim=8, hidden_widths=(32, 32), num_classes=4)
    theta = he_init(spec, r.split("theta"))
    X = r.split("X").normals(1000 * 8).reshape(1000, 8)
    forward(spec, theta, X)  # anything numpy sets up on a first call is not counted
    one_array_per_layer = X.shape[0] * sum(spec.layer_dims[1:]) * X.itemsize
    tracemalloc.start()
    try:
        forward(spec, theta, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * one_array_per_layer


def test_passes_leave_their_inputs_unchanged():
    r = Rng(1)
    spec = ModelSpec(input_dim=8, hidden_widths=(16, 8), num_classes=4)
    ds = gen_blobs(200, 4, 8, 0.15, seed=1)
    theta = he_init(spec, r.split("theta"))
    stack = ParamVector(spec, np.stack([theta.values, he_init(spec, r.split("b")).values]))
    batch = Batch(ds.X[:50], ds.y[:50])
    stacked = Batch(np.stack([ds.X[:50], ds.X[50:100]]), np.stack([ds.y[:50], ds.y[50:100]]))
    inputs = [ds.X, ds.y, batch.X, batch.y, stacked.X, stacked.y, theta.values, stack.values]
    before = [a.copy() for a in inputs]
    forward(spec, theta, ds.X)
    forward(spec, stack, ds.X)
    evaluate(spec, theta, ds, 5e-4)
    evaluate(spec, stack, ds, 5e-4)
    loss_grad(spec, theta, batch, 5e-4)
    loss_grad(spec, stack, stacked, 5e-4)
    for now, then in zip(inputs, before):
        assert np.array_equal(now, then)
