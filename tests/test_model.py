import copy
import hashlib
import math
import pickle

import numpy as np
import pytest

from losslab.errors import DimensionError, ParameterError
from losslab.model import (
    Batch,
    HessianOperator,
    ModelSpec,
    ParamVector,
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
    hvp_full_pass,
    jacobi_eigenvalues,
    mlp_forward_loops,
)


def small_net(seed=0, widths=(5,), d=3, c=3, batch=8):
    r = Rng(seed)
    spec = ModelSpec(input_dim=d, hidden_widths=widths, num_classes=c)
    theta = he_init(spec, r.split("init"))
    dr = r.split("data")
    x = dr.normals(batch * d).reshape(batch, d)
    y = np.array([dr.integer(c) for _ in range(batch)], dtype=np.int64)
    return spec, theta, Batch(x, y)


def test_param_count_and_layout():
    spec = ModelSpec(input_dim=4, hidden_widths=(8, 3), num_classes=2)
    assert spec.param_count == 4 * 8 + 8 + 8 * 3 + 3 + 3 * 2 + 2
    assert spec.layout()[0] == (0, "weight", (4, 8))
    assert spec.layout()[-1] == (2, "bias", (2,))


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


def grad_flat(spec, batch, wd, values, layout):
    theta = ParamVector(layout, values)
    return loss_grad(spec, theta, batch, wd)[1].values


def test_gradient_matches_central_differences():
    for trial in range(10):
        spec, theta, batch = smooth_grad_instance(1000 + 50 * trial, h=1e-5)
        wd = 0.0 if trial % 2 == 0 else 1e-3
        _, grad = loss_grad(spec, theta, batch, wd)

        def f(values):
            return loss_grad(spec, ParamVector(spec.layout(), values), batch, wd)[0]

        fd = central_diff_grad(f, theta.values, h=1e-5)
        assert np.allclose(grad.values, fd, rtol=1e-6, atol=1e-9), trial


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_one_model_loss_grad_is_its_row_in_a_stack(wd):
    for seed in range(60):
        spec, theta, batch = random_instance(seed)
        # two more models of the same spec, each on its own minibatch
        others = [he_init(spec, Rng(seed).split("stack", k)) for k in (1, 2)]
        stack = ParamVector(spec.layout(), np.stack([theta.values] + [t.values for t in others]))
        X = np.stack([batch.X, batch.X[::-1], 0.5 * batch.X])
        y = np.stack([batch.y, batch.y[::-1], batch.y])
        out = ParamVector(spec.layout(), np.empty_like(stack.values))
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
    v = ParamVector(spec.layout(), r.normals(spec.param_count))
    assert np.all(hvp(spec, theta, batch, weight_decay=0.0, v=v).values == 0.0)
    lam = 0.1
    out = hvp(spec, theta, batch, weight_decay=lam, v=v)
    assert np.array_equal(out.values, 0.2 * v.values)


def test_hvp_matches_finite_difference_of_gradients():
    for trial in range(10):
        spec, theta, batch, v_flat = smooth_hvp_instance(2000 + 50 * trial, h=1e-4)
        wd = 5e-4
        v = ParamVector(spec.layout(), v_flat)
        hv = hvp(spec, theta, batch, wd, v).values

        def g(values):
            return grad_flat(spec, batch, wd, values, spec.layout())

        fd = central_diff_hvp(g, theta.values, v.values, h=1e-4)
        assert np.allclose(hv, fd, rtol=1e-4, atol=1e-8), trial


def test_hvp_symmetry_and_linearity():
    for trial in range(5):
        spec, theta, batch = random_instance(seed=3000 + trial)
        r = Rng(400 + trial)
        u = ParamVector(spec.layout(), r.normals(spec.param_count))
        v = ParamVector(spec.layout(), r.normals(spec.param_count))
        hu = hvp(spec, theta, batch, 1e-3, u).values
        hv = hvp(spec, theta, batch, 1e-3, v).values
        lhs = float(v.values @ hu)
        rhs = float(u.values @ hv)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) < 1e-8

        a, b = 0.7, -1.3
        combo = ParamVector(spec.layout(), a * u.values + b * v.values)
        h_combo = hvp(spec, theta, batch, 1e-3, combo).values
        ref = a * hu + b * hv
        scale = float(np.linalg.norm(ref)) + 1e-30
        assert float(np.linalg.norm(h_combo - ref)) / scale < 1e-10


def test_hvp_layout_mismatch():
    spec, theta, batch = small_net()
    other = ModelSpec(input_dim=spec.input_dim, hidden_widths=(9,), num_classes=3)
    v = ParamVector.zeros(other)
    with pytest.raises(DimensionError):
        hvp(spec, theta, batch, 0.0, v)


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
    assert spec.layout() is spec.layout()
    theta = ParamVector(spec.layout(), np.arange(spec.param_count, dtype=np.float64))
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
        ParamVector(spec.layout(), np.zeros(spec.param_count + 1))


# Pinned before the Hessian operator replaced hvp's per-call primal passes:
# sha256 of the little-endian float64 bytes of every output, in order.
HVP_GOLDEN_SHA256 = "9a7cfa074cb30d5b2716f7f8584f516da0422d2a6a219178537322b2ea1e6d2f"
EXACT_HESSIAN_GOLDEN_SHA256 = {
    "random_instance(21)": "393c443c6b78d45450265c3b7cf971fc26b77b04c16c706b646a72438445fb0d",
    "8-16-4/B64": "952c10d53d421ad290a7ab2d1e0f3de4d2a96073fc36ef9a0af626137df824ab",
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
            outputs.append(hvp(spec, theta, batch, wd, ParamVector(spec.layout(), v)).values)
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
        v = ParamVector(spec.layout(), r.normals(spec.param_count) if k % 2
                        else r.rademacher(spec.param_count))
        ref = hvp_full_pass(theta.views(), v.views(), batch.X, batch.y, 5e-4)
        assert np.array_equal(op.apply(v), ref), k


def test_operator_applications_do_not_depend_on_earlier_ones():
    spec, theta, batch = small_net(seed=1, widths=(6, 5), d=4, c=3, batch=40)
    # at wd 0 nothing is added to the tangent passes' output buffer
    op = HessianOperator(spec, theta, batch, 0.0)
    r = Rng(9)
    v1, v2 = (ParamVector(spec.layout(), r.normals(spec.param_count)) for _ in range(2))
    first = hvp(spec, op, batch, 0.0, v1).values
    held = first.copy()
    second = hvp(spec, op, batch, 0.0, v2).values
    again = hvp(spec, op, batch, 0.0, v1).values
    assert np.array_equal(first, held)  # the result is not a view of a workspace
    assert np.array_equal(again, first)
    assert np.array_equal(second, hvp(spec, theta, batch, 0.0, v2).values)


def test_operator_does_not_see_later_edits_of_theta():
    spec, theta, batch = small_net(seed=2, widths=(6,), d=4, c=3, batch=20)
    v = ParamVector(spec.layout(), Rng(3).normals(spec.param_count))
    op = HessianOperator(spec, theta, batch, 1e-3)
    before = op.apply(v)
    theta.values *= 3.0
    assert np.array_equal(op.apply(v), before)


def test_operator_of_a_zero_hessian_returns_exact_zeros():
    spec, theta, batch = penalty_only_instance(seed=4)
    op = HessianOperator(spec, theta, batch, 0.0)
    for seed in range(3):
        v = ParamVector(spec.layout(), Rng(seed).normals(spec.param_count))
        assert np.all(op.apply(v) == 0.0)


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_trace_after_applications_equals_a_fresh_operators(wd):
    # the trace reads the cached primal pass, which lives beside apply's workspaces
    for seed in range(30):
        spec, theta, batch = random_instance(seed)
        op = HessianOperator(spec, theta, batch, wd)
        r = Rng(seed).split("directions")
        for _ in range(3):
            op.apply(ParamVector(spec.layout(), r.normals(spec.param_count)))
        value = op.trace()
        assert value == HessianOperator(spec, theta, batch, wd).trace(), seed
        exact = float(np.trace(exact_hessian(spec, theta, batch, wd)))
        assert abs(value - exact) <= 1e-12 * abs(exact), seed


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
