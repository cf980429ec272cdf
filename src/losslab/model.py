"""ReLU MLP forward pass, exact gradients, Hessian-vector products and trace.

The network structure is hard-wired (dense layers + ReLU, softmax
cross-entropy with an L2 penalty on all parameters), so derivatives are
written out by construction instead of going through a general autodiff
graph.  The Hessian-vector product is the Pearlmutter R-operator:
tangents are pushed through the forward pass and the backward pass is
differentiated once more, with no finite differences anywhere.

The primal pass is written once, in ``_primal``: the forward
activations, the ReLU masks (bool), the softmax, the mean cross-entropy
and every layer's backward signal.  ``loss_grad`` forms the gradient
from those signals.  The curvature of one model at a fixed (theta,
batch) is a ``HessianOperator``, which runs the primal pass once and
caches it: ``apply`` runs only the tangent passes, and ``trace`` reads
the exact trace from the cached pass alone.  ``hvp`` and
``exact_hessian`` build one and apply it; every product is bitwise what
the full forward-over-reverse pass gives.

Each layer of the forward, backward and trace passes allocates one
array and computes in place on it, so no pre-activation is kept and the
ReLU masks are read from the activations; every value is made by the
same ufunc from the same operands as the out-of-place form would.

The one loss is ``mean_CE + wd * ||theta||^2``, and only this module
computes it: every gradient, Hessian product, curvature estimate and
``evaluate`` result in the package is of this objective.

A ``ParamVector`` carries the ``ModelSpec`` it belongs to.  The spec is
the layout: its layer dims fix the flat offsets, so one spec comparison
(``require_matching``) is the only check that a vector fits a model.
``ParamVector`` and ``Batch`` may carry a leading model axis: R models'
parameters as one ``(R, P)`` array and their minibatches as ``(R, B, d)``.
The primal pass reads only the trailing axes, so ``loss_grad`` and
``evaluate`` take either form as given; each model's results in a stack
are bitwise what it gets alone, because stacked ``matmul`` and the row
reductions run the same BLAS call and summation order per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import DimensionError, ParameterError
from .rng import Rng

# Most parameters ``exact_hessian`` assembles a dense Hessian for.
MAX_DENSE_PARAMS = 2000


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of one MLP; the flat parameter layout is a pure function of it.

    The flat vector holds layer 0's ``(d_in, d_out)`` weight, then its
    bias, then layer 1's, and so on.  ``_offsets`` holds each layer's
    weight start, bias start, bias end and weight shape, computed once.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden_widths):
            raise ParameterError("all hidden widths must be >= 1")
        if self.num_classes < 2:
            raise ParameterError("num_classes must be >= 2")
        offsets, end = [], 0
        for d_in, d_out in zip(self.layer_dims, self.layer_dims[1:]):
            offsets.append((end, end + d_in * d_out, end + d_in * d_out + d_out, (d_in, d_out)))
            end = offsets[-1][2]
        object.__setattr__(self, "_offsets", tuple(offsets))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.num_classes)

    @property
    def num_layers(self) -> int:
        return len(self.hidden_widths) + 1

    def layout(self) -> "ModelSpec":
        """The spec itself, which is the layout.  Kept only for the benchmark's
        ``ParamVector(spec.layout(), ...)``; pass the spec."""
        return self

    @property
    def param_count(self) -> int:
        return self._offsets[-1][2]


@dataclass
class ParamVector:
    """Flat float64 parameter vector of one ``ModelSpec``, which is its layout.

    ``values`` is one model's ``(P,)`` vector or a stack of R vectors,
    ``(R, P)``: R models, or one Bezier curve's k+1 control points (see
    ``curves``); the views then carry the same leading axis.  The
    per-layer ``(W, b)`` views are sliced once here, so ``values`` must
    only ever be updated in place, never rebound.
    """

    spec: ModelSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.spec.param_count:
            raise DimensionError(
                f"value shape {values.shape} does not match parameter count {self.spec.param_count}"
            )
        lead = values.shape[:-1]
        self._views = [(values[..., w0:b0].reshape(lead + shape), values[..., b0:end])
                       for w0, b0, end, shape in self.spec._offsets]

    @classmethod
    def zeros(cls, spec: ModelSpec) -> "ParamVector":
        return cls(spec, np.zeros(spec.param_count))

    def copy(self) -> "ParamVector":
        return ParamVector(self.spec, self.values.copy())

    def __reduce__(self):
        # rebuild through __init__ so the views of a pickled or deep-copied
        # vector alias its own new buffer
        return ParamVector, (self.spec, self.values)

    def views(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into the flat buffer, one pair per layer."""
        return self._views


def require_matching(spec: ModelSpec, theta: ParamVector) -> None:
    # equal specs have equal layer dims, so equal layouts: no other check is needed
    if theta.spec is not spec and theta.spec != spec:
        raise DimensionError("parameter vector is of another model spec")


@dataclass
class Batch:
    """One minibatch: features and integer class labels.

    ``X`` is ``(B, d)`` for one model, or ``(R, B, d)`` with labels
    ``(R, B)`` for a stack of R models; ``size`` is B either way.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim not in (2, 3):
            raise DimensionError("batch X must be 2-D, or 3-D for a stack of models")
        if self.y.size != math.prod(self.X.shape[:-1]):
            raise DimensionError("batch X rows and label count differ")
        self.y = self.y.reshape(self.X.shape[:-1])

    @property
    def size(self) -> int:
        return self.X.shape[-2]


def he_init(spec: ModelSpec, rng: Rng) -> ParamVector:
    """Gaussian weights with variance 2/fan_in, zero biases."""
    theta = ParamVector.zeros(spec)
    for w, b in theta.views():
        fan_in = w.shape[0]
        w[...] = rng.normals(w.size).reshape(w.shape) * np.sqrt(2.0 / fan_in)
        b[...] = 0.0
    return theta


def _forward_trace(spec, theta, X):
    """Returns (activations, logits); activations[0] is X.

    Works on one model or, with a leading model axis on ``theta`` and ``X``,
    on a stack of them.  Each layer allocates one array, ``a @ W``, and adds
    the bias and takes the ReLU in place on it.  ``a > 0.0`` is exactly
    ``z > 0.0`` (NaN and -0.0 included), so masks come from activations.
    """
    acts = [X]
    a = X
    last = spec.num_layers - 1
    for l, (w, b) in enumerate(theta.views()):
        a = np.matmul(a, w)
        a += b[..., None, :]
        if l < last:
            np.maximum(a, 0.0, out=a)
            acts.append(a)
    return acts, a


def forward(spec: ModelSpec, theta: ParamVector, X: np.ndarray) -> np.ndarray:
    """Logits of shape (batch, num_classes), or (R, batch, num_classes) for a stack of R models."""
    require_matching(spec, theta)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DimensionError(f"input shape {X.shape} does not match input_dim {spec.input_dim}")
    return _forward_trace(spec, theta, X)[1]


def _shifted_exp(logits: np.ndarray):
    """Logits minus their row max, its exp, and the row sums of that exp."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _shifted_exp(logits)
    return e / s[..., None]


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of ``(N, C)`` logits, or per model of ``(R, N, C)``;
    ``y`` is ``(N,)`` or, for a stack, ``(R, N)``.

    Also returns what the softmax and its gradient reuse: the exp of the
    shifted logits, its row sums, and every row's label as a flat index
    into a C-ordered array of the logits' shape (one index array, cheaper
    to build and to apply than a tuple of broadcast axis indices).
    """
    shifted, e, s = _shifted_exp(logits)
    pick = np.arange(0, logits.size, logits.shape[-1]).reshape(logits.shape[:-1]) + y
    return (np.log(s) - shifted.reshape(-1)[pick]).mean(axis=-1), e, s, pick


def _sq_norms(values: np.ndarray) -> np.ndarray:
    """Squared norm of a ``(P,)`` vector, or the ``(R,)`` norms of ``(R, P)`` rows,
    one BLAS dot each.

    Each equals ``values[r] @ values[r]``; einsum or ``(V * V).sum(1)``
    would round differently.
    """
    return (values[..., None, :] @ values[..., :, None])[..., 0, 0]


def loss_grad(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
    out: ParamVector | None = None,
):
    """Regularized cross-entropy loss and its exact gradient.

    For one model returns ``(loss, grad)``.  For a stack (``theta`` of R
    models, ``batch`` with the same leading axis) returns an ``(R,)`` loss
    array and the stacked gradient.  The gradient is written into ``out``
    when the caller passes a buffer of ``theta``'s shape.  Shapes are not
    checked here: the trainers check them once, at their boundary.
    """
    if batch.size == 0:
        raise ParameterError("empty batch")
    if weight_decay < 0:
        raise ParameterError("weight_decay must be >= 0")
    grad = ParamVector(spec, np.empty_like(theta.values)) if out is None else out
    acts, _, _, losses, signals = _primal(spec, theta, batch.X, batch.y)
    losses += weight_decay * _sq_norms(theta.values)
    for l, (gw, gb) in enumerate(grad.views()):
        np.matmul(acts[l].swapaxes(-1, -2), signals[l], out=gw)
        signals[l].sum(axis=-2, out=gb)
    grad.values += (2.0 * weight_decay) * theta.values
    return (float(losses) if theta.values.ndim == 1 else losses), grad


@dataclass
class EvalResult:
    loss: float
    acc: float


def evaluate(spec: ModelSpec, theta: ParamVector, ds: Dataset, weight_decay: float = 0.0) -> EvalResult:
    """Mean cross-entropy plus ``weight_decay * ||theta||^2``, and accuracy in percent.

    Argmax ties break toward the lowest class index.  For a stack of R
    models (``theta`` values ``(R, P)``) the fields are ``(R,)`` arrays
    from one forward pass, entry r bitwise what model r alone gives.
    """
    logits = forward(spec, theta, ds.X)
    loss = _cross_entropy(logits, ds.y)[0] + weight_decay * _sq_norms(theta.values)
    acc = 100.0 * (np.argmax(logits, axis=-1) == ds.y).mean(axis=-1)
    if theta.values.ndim == 1:
        return EvalResult(loss=float(loss), acc=float(acc))
    return EvalResult(loss=loss, acc=acc)


def _primal(spec, theta, X, y):
    """The primal pass of one model or a stack, shared by the gradient and the Hessian.

    ``theta`` is one model with ``X`` ``(B, d)`` and ``y`` ``(B,)``, or a
    stack of R models with ``X`` ``(R, B, d)`` and ``y`` ``(R, B)``.
    Returns the forward activations (``acts[0]`` is ``X``), the ReLU masks
    (bool), the softmax, the mean cross-entropy (``(R,)`` for a stack),
    and every layer's backward signal: ``signals[l]`` is the data loss's
    gradient with respect to layer l's pre-activation.  The masks are read
    from the activations (``a > 0.0``), and each layer's signal is one
    array, ``g @ W^T``, masked in place.
    """
    acts, logits = _forward_trace(spec, theta, X)
    masks = [a > 0.0 for a in acts[1:]]
    ce, e, s, pick = _cross_entropy(logits, y)
    p = e / s[..., None]
    g = p.copy()
    g.reshape(-1)[pick] -= 1.0
    g /= y.shape[-1]
    signals = [g]
    wpairs = theta.views()
    for l in range(spec.num_layers - 1, 0, -1):
        g = g @ wpairs[l][0].swapaxes(-1, -2)
        g *= masks[l - 1]
        signals.insert(0, g)
    return acts, masks, p, ce, signals


class HessianOperator:
    """Pearlmutter Hessian-vector products, and the trace, at one fixed (theta, batch, weight decay).

    The constructor checks that ``theta`` is one model of ``spec`` and
    ``batch`` a 2-D batch it can read, then runs the primal pass once and
    keeps only what ``apply`` and ``trace`` read: the forward activations,
    the bool ReLU masks, the softmax and the backward signals of layers 1
    and up (layer 0's is never read).  ``x *= mask`` with a bool mask
    gives the bits of the float 0/1 product, so no float copy of a mask
    is kept.  ``theta`` is copied, so later in-place edits of it do not
    reach the operator.  Each ``apply`` runs only the tangent passes, into
    workspaces the operator owns: one ``(B, width)`` tangent per layer,
    weight-shaped partials, and one ``(B, widest)`` scratch buffer whose
    leading ``B * width`` entries serve every layer's partial product, as
    no two are live at once.  It returns a fresh ``(P,)`` array; the first
    ``apply`` allocates the workspaces.  ``trace`` reads only the cached
    pass and allocates none.
    """

    def __init__(self, spec: ModelSpec, theta: ParamVector, batch: Batch, weight_decay: float):
        if batch.size == 0:
            raise ParameterError("empty batch")
        require_matching(spec, theta)
        X, y = batch.X, batch.y
        if theta.values.ndim != 1 or X.ndim != 2:
            raise DimensionError("the Hessian takes one model and a 2-D batch, not a stack")
        if X.shape[1] != spec.input_dim:
            raise DimensionError(f"batch input dimension {X.shape[1]} != input_dim {spec.input_dim}")
        # a Batch declares no class count, so only the spec bounds the labels
        if y.min() < 0 or y.max() >= spec.num_classes:
            raise DimensionError(f"batch labels span {y.min()}..{y.max()}, outside the "
                                 f"model's {spec.num_classes} classes")
        self.spec = spec
        self.batch = batch
        self.weight_decay = weight_decay
        theta = theta.copy()
        self._acts, self._masks, self._p, _, self._signals = _primal(spec, theta, X, y)
        self._signals[0] = None  # apply reads the signals of layers 1 and up only
        self._weights = [w for w, _ in theta.views()]
        self._out = None  # apply's workspaces, allocated by the first apply

    def _allocate(self) -> None:
        n, dims = self.batch.size, self.spec.layer_dims
        # _tangents[l] holds layer l's output tangent on the way forward and
        # its backward tangent signal on the way back
        self._tangents = [np.empty((n, d)) for d in dims[1:]]
        scratch = np.empty(n * max(dims[1:]))
        self._partials = [scratch[:n * d].reshape(n, d) for d in dims[1:]]
        self._weight_partials = [np.empty(w.shape) for w in self._weights]
        self._row_sums = np.empty((n, 1))
        self._out = np.empty(self.spec.param_count)
        self._out_views = ParamVector(self.spec, self._out).views()

    def apply(self, v: ParamVector) -> np.ndarray:
        """``H v`` as a new ``(P,)`` array."""
        require_matching(self.spec, v)
        if self._out is None:
            self._allocate()
        acts, ws, masks = self._acts, self._weights, self._masks
        rs, ts = self._tangents, self._partials
        vpairs = v.views()
        last = len(ws) - 1

        # forward tangents; the input's tangent is zero, so layer 0 has no W product
        for l, (vw, vb) in enumerate(vpairs):
            if l == 0:
                np.matmul(acts[0], vw, out=rs[0])
            else:
                np.matmul(rs[l - 1], ws[l], out=rs[l])
                np.matmul(acts[l], vw, out=ts[l])
                rs[l] += ts[l]
            rs[l] += vb
            if l < last:
                rs[l] *= masks[l]

        # tangent of the softmax cross-entropy's backward signal
        p, rg = self._p, rs[last]
        np.multiply(p, rg, out=ts[last])
        np.sum(ts[last], axis=1, keepdims=True, out=self._row_sums)
        rg -= self._row_sums
        rg *= p
        rg /= self.batch.size

        for l in range(last, -1, -1):
            hw, hb = self._out_views[l]
            rg = rs[l]
            if l == 0:
                np.matmul(acts[0].T, rg, out=hw)
            else:
                np.matmul(rs[l - 1].T, self._signals[l], out=hw)
                np.matmul(acts[l].T, rg, out=self._weight_partials[l])
                hw += self._weight_partials[l]
            np.sum(rg, axis=0, out=hb)
            if l > 0:
                np.matmul(rg, ws[l].T, out=ts[l - 1])
                np.matmul(self._signals[l], vpairs[l][0].T, out=rs[l - 1])
                rs[l - 1] += ts[l - 1]
                rs[l - 1] *= masks[l - 1]

        return self._out + (2.0 * self.weight_decay) * v.values

    def trace(self) -> float:
        """The exact trace of H, from the cached primal pass and C backward passes.

        Every net is ReLU: with the masks fixed every logit is linear in
        any one parameter, so diag H is the diagonal of the Gauss-Newton
        matrix.  Writing the softmax cross-entropy's Hessian in the logits as
        ``diag(p_b) - p_b p_b^T = sum_c s_bc s_bc^T``, ``s_bc = sqrt(p_bc)(e_c - p_b)``,

            tr H = (1/B) sum_l sum_c sum_b (||a_lb||^2 + 1) ||delta^c_lb||^2 + 2 wd P,

        where ``a_lb`` is row b's input to layer l and ``delta^c_lb`` is
        ``s_bc`` pushed back through the ``W^T`` products and masks to
        layer l's pre-activation (weight ``W_l[i, j]`` gives
        ``a_lb[i]^2 delta^c_lb[j]^2``, the bias ``delta^c_lb[j]^2``).

        The classes are pushed back one at a time into an ``(L, B)`` sum, so
        the working memory is O(B x widest layer), not C times it.
        """
        p, acts, ws = self._p, self._acts, self._weights
        n, c = p.shape
        eye, sq_deltas = np.eye(c), np.zeros((len(ws), n))
        for k in range(c):
            # delta_b = sqrt(p_bk) (e_k - p_b), then pushed back layer by layer
            delta = eye[k] - p
            delta *= np.sqrt(p[:, k:k + 1])
            for l in range(len(ws) - 1, -1, -1):
                sq_deltas[l] += np.einsum("bj,bj->b", delta, delta)
                if l > 0:
                    delta = delta @ ws[l].T
                    delta *= self._masks[l - 1]
        total = 0.0
        for l in range(len(ws) - 1, -1, -1):
            sq_acts = np.einsum("bi,bi->b", acts[l], acts[l]) + 1.0
            total += float(sq_acts @ sq_deltas[l])
        return total / n + 2.0 * self.weight_decay * self.spec.param_count


def hvp(
    spec: ModelSpec,
    theta: ParamVector | HessianOperator,
    batch: Batch,
    weight_decay: float,
    v: ParamVector,
) -> ParamVector:
    """Hessian-vector product by forward-over-reverse differentiation.

    ``theta`` is either the parameters, for a one-shot product (an operator
    is built and applied once), or a ``HessianOperator`` built for this
    spec, batch and weight decay, which is applied as it is.
    """
    if not isinstance(theta, HessianOperator):
        theta = HessianOperator(spec, theta, batch, weight_decay)
    elif theta.spec != spec or theta.batch is not batch or theta.weight_decay != weight_decay:
        raise ParameterError("the operator was built for another spec, batch or weight decay")
    return ParamVector(spec, theta.apply(v))


def exact_hessian(
    spec: ModelSpec,
    theta: ParamVector,
    batch: Batch,
    weight_decay: float,
) -> np.ndarray:
    """Dense Hessian assembled column by column, one operator application per basis vector.

    Test oracle for the curvature estimators; guarded so it is
    never called on more than ``MAX_DENSE_PARAMS`` parameters.
    """
    p = spec.param_count
    if p > MAX_DENSE_PARAMS:
        raise ParameterError(f"exact_hessian guard: {p} parameters exceeds {MAX_DENSE_PARAMS}")
    op = HessianOperator(spec, theta, batch, weight_decay)
    h = np.empty((p, p), dtype=np.float64)
    basis = ParamVector.zeros(spec)
    for j in range(p):
        basis.values[:] = 0.0
        basis.values[j] = 1.0
        h[:, j] = op.apply(basis)
    return h
