"""Small differentiable classifiers over flat parameter vectors.

Two model kinds share one code path: ``logistic`` is a zero-hidden-layer
MLP. The forward pass, the softmax cross-entropy and the hand-written
reverse-mode delta recursion have one implementation, ``_Kernel``, bound
once to a parameter block and an input shape: it makes every output
array and every view its passes read when it is built, so a pass is a
run of out= calls. The SAM trainer binds one for a whole run; every other
caller (the stacked gradients, gif's factors, ``_evaluate``, the
predictions and ``hvp_operator``'s primal pass) builds one over fresh
arrays for its call. Hessian-vector products propagate a forward tangent
through both passes, so they are exact (no finite differences):
``hvp_operator`` runs the gradient's primal pass once per linearization
point and adds only the tangent sweeps. Everything is float64 and
vectorized over the batch axis.

The softmax's reductions over the class axis (the max shift, the exp-sum
and the curvature's tangent sum) go through _class_reducer. NumPy reduces
a short last axis row by row, at tens of nanoseconds a row, so with fewer
than 8 classes and at least CLASS_LOOP_MIN_ROWS (128) rows it makes one
vectorized call per class column instead, with the same bits. Stacks of
many rows (a retrain sweep's replicas, gif's replay blocks, a block of
tangents) take the column loop; a one-row stack of fewer rows (the
trainer's one-replica step on a minibatch, a one-tangent HVP over a small
train split) keeps NumPy's axis reduction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidInputError

Array = np.ndarray

# Fewest rows at which _class_reducer loops over the class columns. Timed
# with timeit on a 2-vCPU x86-64 host, for 2-4 classes the loop breaks
# even with NumPy's axis reduction at 64-96 rows for the max and at
# 128-256 rows for the sum; at 128 a loss pass (one of each) gains and a
# curvature tangent's sum (a sum alone) loses at most about 3 us.
CLASS_LOOP_MIN_ROWS = 128
# Floats of one layer's activations in one stacked _evaluate pass (512 KiB).
_EVAL_STACK_FLOATS = 2**16
# Hidden-layer activations; ExperimentConfig checks its own against these too.
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. layer_sizes runs input d ... output C."""

    kind: str  # "logistic" | "mlp"
    layer_sizes: tuple[int, ...]
    activation: str = "tanh"  # one of ACTIVATIONS; hidden layers only

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp"):
            raise InvalidInputError(f"unknown model kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidInputError(f"bad layer_sizes {sizes}")
        if sizes[-1] < 2:
            raise InvalidInputError("output size C must be >= 2")
        if self.kind == "logistic" and len(sizes) != 2:
            raise InvalidInputError("logistic model takes layer_sizes [d, C]")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


@dataclass
class Dataset:
    """Feature matrix plus integer labels and per-row split tags."""

    features: Array  # (n, d) float64
    labels: Array  # (n,) int64 in 0..C-1
    split: Array = field(default=None)  # (n,) of {"train","val","test"}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise InvalidInputError("features/labels shape mismatch")
        if self.features.shape[0] < 1:
            raise InvalidInputError("dataset must contain at least one row")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("features contain non-finite values")
        if self.labels.min() < 0:
            raise InvalidInputError("negative label")
        if self.split is None:
            self.split = np.full(self.n, "train", dtype=object)
        else:
            self.split = np.asarray(self.split, dtype=object)
            if self.split.shape[0] != self.n:
                raise InvalidInputError("split tag count mismatch")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def indices(self, split: str) -> Array:
        return np.nonzero(self.split == split)[0].astype(np.int64)


def _check_params(spec: ModelSpec, params: Array) -> Array:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count,):
        raise InvalidInputError(
            f"parameter vector has length {params.shape}, expected ({spec.param_count},)"
        )
    return params


def _unpack_rows(spec: ModelSpec, V: Array) -> list[tuple[Array, Array]]:
    """Layers of each row of V (..., P), any leading axes: views W (..., fan_out, fan_in)
    and b (..., fan_out), so writing into them writes into V."""
    lead = V.shape[:-1]
    layers = []
    off = 0
    sizes = spec.layer_sizes
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        W = V[..., off : off + fan_in * fan_out].reshape(*lead, fan_out, fan_in)
        off += fan_in * fan_out
        layers.append((W, V[..., off : off + fan_out]))
        off += fan_out
    return layers


def init_params(spec: ModelSpec, seed: int) -> Array:
    """Zero-mean uniform weights scaled by 1/sqrt(fan_in); biases zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count)
    for W, _ in _unpack_rows(spec, params):
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def _act_second_deriv(spec: ModelSpec, A: Array) -> Array:
    if spec.activation == "tanh":
        return -2.0 * A * (1.0 - A * A)
    return np.zeros_like(A)


def _class_reducer(ufunc: np.ufunc, Z: Array, out: Array) -> Callable[[], Array]:
    """A call, bound once, that writes ufunc.reduce(Z, axis=-1, keepdims=True)
    into out (a C-contiguous (..., 1) array) for ufunc np.maximum or np.add,
    with the same bits, and returns out. Below 8 entries NumPy's add-reduce
    sums a row left to right starting from +0.0 (so an all -0.0 row sums to
    +0.0), and the column loop does the same; from 8 entries NumPy sums
    pairwise, so those calls, and those with fewer than
    CLASS_LOOP_MIN_ROWS rows, keep the axis reduction. A maximum is exact
    in any order, save for a NaN's sign and for which zero a row that ties
    +0.0 with -0.0 keeps, which NumPy's own SIMD paths do not agree on;
    the softmax shift by either zero gives the same bits, because such a
    row's exp-sum is at least 2. The column loop reads Z through views, so
    the call sees what is written into a C-contiguous Z after binding."""
    C = Z.shape[-1]
    if C >= 8 or Z.size < C * CLASS_LOOP_MIN_ROWS:
        return partial(ufunc.reduce, Z, -1, None, out, True)  # axis, dtype, out, keepdims
    cols, flat = Z.reshape(-1, C).T, out.reshape(-1)
    # The first column: plus +0.0 for a sum, itself for a maximum (max(x, x) is x).
    first = 0.0 if ufunc is np.add else cols[0]

    def reduce() -> Array:
        ufunc(cols[0], first, out=flat)
        for col in cols[1:]:
            ufunc(flat, col, out=flat)
        return out

    return reduce


def _class_reduce(ufunc: np.ufunc, Z: Array) -> Array:
    """ufunc.reduce(Z, axis=-1, keepdims=True) through _class_reducer, once."""
    return _class_reducer(ufunc, Z, np.empty((*Z.shape[:-1], 1)))()


def _check_features(spec: ModelSpec, X: Array) -> Array:
    """X as a float64 matrix of the model's input width."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != spec.input_dim:
        raise InvalidInputError(f"feature dimension {X.shape[1]} != model input {spec.input_dim}")
    return X


def _check_examples(spec: ModelSpec, X: Array, y: Array) -> tuple[Array, Array]:
    X = _check_features(spec, X)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.max(initial=-1) >= spec.num_classes or y.min(initial=0) < 0:
        raise InvalidInputError("label out of range for model output size")
    return X, y


class _Kernel:
    """The forward pass, softmax cross-entropy and backward pass of spec, bound
    once to a parameter block W (..., P) and an input stack X (..., b, d),
    whose leading axes broadcast (one parameter row over every stack row, or
    one input stack under every parameter row); each stack row goes through
    its own matmuls, so row r does not depend on the other rows, bit for bit.

    Every output array, and every view a pass reads (transposed weights,
    broadcast biases, the flat logp and delta views, transposed deltas and
    the class-axis reductions), is made here, so the passes make only out=
    calls and each call writes over the last one's results. A caller that
    runs many steps on one shape binds one kernel, writes each step's inputs
    into X and W in place, and binds a second set of weights with at(); a
    one-off caller binds one over fresh arrays. Lists are indexed by layer:
    layers[l] holds W's views (W_l, b_l); acts[0] is X and acts[L] the
    logits; deltas[l] is the loss's derivative at layer l's pre-activations;
    for l >= 1, s[l] = deltas[l] @ W_l and phi1[l] = act'(acts[l]) (1.0 or
    0.0 for relu), so that deltas[l - 1] = phi1[l] * s[l]. backward=False
    makes no backward arrays, for callers that stop at the loss pass."""

    def __init__(self, spec: ModelSpec, W: Array, X: Array, backward: bool = True):
        sizes, C = spec.layer_sizes, spec.num_classes
        lead, b = np.broadcast_shapes(W.shape[:-1], X.shape[:-2]), X.shape[-2]
        self.spec, self.tanh = spec, spec.activation == "tanh"
        self.acts = [X] + [np.empty((*lead, b, k)) for k in sizes[1:]]
        self.logp, self._exp, reduce = (np.empty((*lead, b, k)) for k in (C, C, 1))
        self._logp_flat = self.logp.reshape(-1)
        self._max = _class_reducer(np.maximum, self.acts[-1], reduce)
        self._sum = _class_reducer(np.add, self._exp, reduce)
        self.rows = np.arange(0, self.logp.size, C).reshape(*lead, b)  # each example's row in logp
        self.label, self.losses = np.empty_like(self.rows), np.empty(self.rows.shape)
        self.deltas = [np.empty((*lead, b, k)) for k in sizes[1:]] if backward else None
        if backward:
            self.s, self.phi1 = ([None] + [np.empty((*lead, b, k)) for k in sizes[1:-1]]
                                 for _ in range(2))
            self._delta_flat = self.deltas[-1].reshape(-1)
            self.grad = np.empty((*lead, spec.param_count))
            self._sums = [(d.swapaxes(-1, -2), a, gW, d, gb) for d, a, (gW, gb)
                          in zip(self.deltas, self.acts, _unpack_rows(spec, self.grad))]
        self._bind(W)

    def _bind(self, W: Array) -> None:
        acts = self.acts
        self.layers = layers = _unpack_rows(self.spec, W)  # views (W_l, b_l) of W
        # The activation, in place of each hidden layer's Z; the logits get none.
        hidden = [partial(np.tanh, Z, out=Z) if self.tanh else partial(np.maximum, Z, 0.0, out=Z)
                  for Z in acts[1:-1]]
        self._layers = [(A, Wl.swapaxes(-1, -2), bl[..., None, :], Z, act) for A, Z, (Wl, bl), act
                        in zip(acts, acts[1:], layers, hidden + [None])]
        if self.deltas:
            self._back = [(self.deltas[l], layers[l][0], self.s[l], acts[l], self.phi1[l],
                           self.deltas[l - 1]) for l in range(len(layers) - 1, 0, -1)]

    def at(self, W: Array) -> _Kernel:
        """A kernel at the parameter block W, of this one's shape, sharing every
        output array with this one."""
        other = copy.copy(self)
        other._bind(W)
        return other

    def labels(self, y: Array) -> Array:
        """The flat position in logp of each example's label logit, for labels y
        that broadcast to the stack's (..., b)."""
        return np.add(self.rows, y, out=self.label)

    def forward(self) -> list[Array]:
        for A, WT, B, Z, act in self._layers:
            np.matmul(A, WT, out=Z)
            Z += B
            if act:
                act()
        return self.acts

    def loss_pass(self, label: Array, loss: bool = True) -> Array | None:
        """The forward pass and softmax cross-entropy, for label positions from
        labels(): fills acts and logp, and returns the per-example losses
        (..., b), or None if not loss."""
        self.forward()
        logp = np.subtract(self.acts[-1], self._max(), out=self.logp)
        np.exp(logp, out=self._exp)
        s = self._sum()
        np.subtract(logp, np.log(s, out=s), out=logp)
        if not loss:
            return None
        # "wrap" takes into out without a copy of it; every position is in range.
        losses = self._logp_flat.take(label, out=self.losses, mode="wrap")
        return np.negative(losses, out=losses)

    def backprop(self, label: Array, loss: bool = True) -> Array | None:
        """loss_pass, then the backward delta recursion from exp(logp) minus
        the label one-hot: fills deltas, s and phi1 as well."""
        losses = self.loss_pass(label, loss)
        np.exp(self.logp, out=self.deltas[-1])
        self._delta_flat[label] -= 1.0  # every position is distinct
        for delta, Wl, s, A, phi, prev in self._back:
            np.matmul(delta, Wl, out=s)
            # act' from the activation's value: 1 - A^2 for tanh, A > 0 (iff Z > 0) for relu.
            if self.tanh:
                np.multiply(A, A, out=phi)
                np.subtract(1.0, phi, out=phi)
            else:
                np.greater(A, 0.0, out=phi)
            np.multiply(phi, s, out=prev)
        return losses

    def gradient(self, label: Array, loss: bool = True) -> Array | None:
        """backprop, then the per-example gradient factors (deltas[l], acts[l])
        summed over the batch axis into grad (..., P): delta_l^T a_l for layer
        l's weights, the sum of delta_l for its bias."""
        losses = self.backprop(label, loss)
        for dT, A, gW, d, gb in self._sums:
            np.matmul(dT, A, out=gW)
            np.add.reduce(d, axis=-2, out=gb)  # np.sum's ufunc without its Python wrapper
        return losses


def stacked_loss_factors(
    spec: ModelSpec, W: Array, X: Array, y: Array
) -> tuple[Array, list[tuple[Array, Array]]]:
    """Sum of per-example losses (R,) and per-example gradient factors for
    R parameter rows W (R, P), row r over its own batch X[r] (b, d), y[r]
    (b,). factors[l] = (delta_l (R, b, fan_out), a_l (R, b, fan_in)): the
    loss's derivative with respect to layer l's pre-activations, and that
    layer's input. Example i's gradient under row r is the outer product
    delta_l[r, i] (x) a_l[r, i] for layer l's weights and delta_l[r, i]
    for its bias.

    Inputs are not checked; callers validate them once. Every row goes
    through its own stacked matmuls, so row r does not depend on the other
    rows of the stack, bit for bit.
    """
    kernel = _Kernel(spec, W, X)
    losses = kernel.backprop(kernel.labels(y))
    return losses.sum(axis=-1), list(zip(kernel.deltas, kernel.acts[:-1]))


def stacked_loss_grad(spec: ModelSpec, W: Array, X: Array, y: Array) -> tuple[Array, Array]:
    """Sum of per-example losses (R,) and summed gradients (R, P) for R
    parameter rows W (R, P), row r over its own batch X[r] (b, d), y[r] (b,):
    stacked_loss_factors reduced over each batch, delta_l^T a_l and the sum
    of delta_l. Like the factors, row r does not depend on the other rows.
    """
    kernel = _Kernel(spec, W, X)
    return kernel.gradient(kernel.labels(y)).sum(axis=-1), kernel.grad


def _rows(spec: ModelSpec, dataset: Dataset, indices, who: str) -> tuple[Array, Array]:
    """Checked features and labels of the given dataset rows: a non-empty
    index set within 0..n-1 (no negative indices counting from the end)."""
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    if indices.size == 0:
        raise InvalidInputError(f"{who}: the index set is empty")
    if indices.min() < 0 or indices.max() >= dataset.n:
        raise InvalidInputError(f"{who}: index out of range 0..{dataset.n - 1}")
    return _check_examples(spec, dataset.features[indices], dataset.labels[indices])


def _split_rows(spec: ModelSpec, dataset: Dataset, split: str) -> tuple[Array, Array]:
    """A split's checked features and labels; a split without rows is an
    InvalidInputError."""
    rows = dataset.indices(split)
    if rows.size == 0:
        raise InvalidInputError(f"dataset has no {split} split rows")
    return _check_examples(spec, dataset.features[rows], dataset.labels[rows])


def subset_loss_grad(
    spec: ModelSpec,
    params: Array,
    dataset: Dataset,
    indices,
    scale: float = 1.0,
) -> tuple[float, Array]:
    """scale * (sum loss, sum gradient) over the given dataset rows."""
    X, y = _rows(spec, dataset, indices, "subset_loss_grad")
    loss, grad = stacked_loss_grad(spec, _check_params(spec, params)[None], X[None], y[None])
    return scale * float(loss[0]), scale * grad[0]


def example_grads(spec: ModelSpec, params: Array, dataset: Dataset, indices) -> Array:
    """Per-example loss gradients, one row per dataset row in indices.

    Each example is propagated as its own one-row stack, so row i equals
    subset_loss_grad over indices[i] alone, bit for bit, whichever other
    rows share the call; the rows sum to the subset gradient up to rounding.
    """
    X, y = _rows(spec, dataset, indices, "example_grads")
    return stacked_loss_grad(spec, _check_params(spec, params)[None], X[:, None, :], y[:, None])[1]


def hvp_operator(
    spec: ModelSpec, params: Array, X: Array, y: Array, scale: float = 1.0
) -> tuple[Array, Callable[[Array], Array]]:
    """The gradient scale * (sum_i d loss_i) at params over the examples X
    (n, d), y (n,), bitwise subset_loss_grad's over the same rows, and the
    curvature operator v -> scale * (sum_i d2 loss_i) v there, built once:
    the gradient's primal pass (one _Kernel's gradient) runs here, with
    the softmax probabilities exp(logp) and the activation's derivatives,
    and each application runs only the tangent sweeps. The rows are not
    checked; callers validate them once (_rows, _split_rows).

    An application takes one tangent (P,) or a block of tangents (m, P),
    one per row, and returns v's shape. Forward-mode tangents seeded by v
    are carried through the forward pass and then through the backward
    pass, yielding the directional derivative of the gradient, so the
    product is exact. Each tangent row goes through its own stacked
    products, so a row's result does not depend on the other rows of the
    block, and an application writes into nothing the operator holds.
    """
    kernel = _Kernel(spec, _check_params(spec, params), X)
    kernel.gradient(kernel.labels(y), loss=False)
    acts, deltas, s, phi1, layers = kernel.acts, kernel.deltas, kernel.s, kernel.phi1, kernel.layers
    L = len(layers)
    grad = scale * kernel.grad
    P = np.exp(kernel.logp)
    phi2 = [None] + [_act_second_deriv(spec, A) for A in acts[1:L]]

    def apply(v: Array) -> Array:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != spec.param_count:
            raise InvalidInputError("hvp: tangent vector length mismatch")
        tangents = _unpack_rows(spec, v.reshape(-1, spec.param_count))

        # Tangents of the forward pass, one leading axis per tangent row;
        # dZs keeps the pre-activation tangents for the second-derivative
        # term of the backward sweep. The input's tangent is zero, so
        # layer 0 has no products with it.
        dacts: list[Array] = [None]
        dZs: list[Array] = [None]
        for l, ((W, _), (dW, db)) in enumerate(zip(layers, tangents)):
            dZ = acts[l] @ np.swapaxes(dW, -1, -2)
            if l > 0:
                dZ += dacts[l] @ W.T
            dZ += db[:, None, :]
            dZs.append(dZ)
            dacts.append(dZ if l == L - 1 else phi1[l + 1] * dZ)

        dZ = dacts[-1]
        # Tangent of softmax: dP = P * (dZ - sum(P * dZ)).
        ddelta = P * (dZ - _class_reduce(np.add, P * dZ))
        H = np.empty((len(dZ), spec.param_count))
        hparts = _unpack_rows(spec, H)
        for l in range(L - 1, -1, -1):
            hW = np.matmul(np.swapaxes(ddelta, -1, -2), acts[l], out=hparts[l][0])
            if l > 0:
                hW += deltas[l].T @ dacts[l]
            np.add.reduce(ddelta, axis=-2, out=hparts[l][1])
            if l > 0:
                ds = ddelta @ layers[l][0] + deltas[l] @ tangents[l][0]
                ddelta = phi2[l] * dZs[l] * s[l] + phi1[l] * ds
        return (scale * H).reshape(v.shape)

    return grad, apply


def hvp(
    spec: ModelSpec, params: Array, dataset: Dataset, indices, v: Array, scale: float = 1.0
) -> Array:
    """Exact Hessian-vector product scale * (sum_i d2 loss_i) v: one
    application of hvp_operator. v is one tangent (P,) or a block of
    tangents (m, P), one per row; the result has v's shape. A caller that
    applies the same curvature to several tangents builds the operator
    once instead.
    """
    return hvp_operator(spec, params, *_rows(spec, dataset, indices, "hvp"), scale)[1](v)


def predict(spec: ModelSpec, params: Array, x: Array) -> tuple[int, Array]:
    """Argmax label for one input; ties break toward the smallest class."""
    logits = _logits(spec, params, x)[0]
    return int(np.argmax(logits)), logits


def predict_labels(spec: ModelSpec, params: Array, X: Array) -> Array:
    """Vectorized argmax labels for a matrix of inputs."""
    return np.argmax(_logits(spec, params, X), axis=1).astype(np.int64)


def _logits(spec: ModelSpec, params: Array, X: Array) -> Array:
    """The logits (n, C) of one parameter vector over the inputs X, both checked here."""
    params = _check_params(spec, params)
    return _Kernel(spec, params, _check_features(spec, X), backward=False).forward()[-1]


def _evaluate(spec: ModelSpec, W: Array, X: Array, y: Array) -> tuple[Array, Array]:
    """Summed loss (R,) and accuracy (R,) of every row of W (R, P) over checked rows X, y:
    stacked loss passes of at most _EVAL_STACK_FLOATS activations a layer, labels the
    logits' argmax as in predict_labels. Row r does not depend on the other rows, bit for bit."""
    size = max(1, _EVAL_STACK_FLOATS // (y.size * max(spec.layer_sizes[1:])))
    losses, accs = np.empty(len(W)), np.empty(len(W))
    for lo in range(0, len(W), size):
        kernel = _Kernel(spec, W[lo : lo + size], X[None], backward=False)
        losses[lo : lo + size] = kernel.loss_pass(kernel.labels(y)).sum(axis=-1)
        accs[lo : lo + size] = np.mean(np.argmax(kernel.acts[-1], axis=-1) == y, axis=-1)
    return losses, accs


def accuracy(spec: ModelSpec, params: Array, dataset: Dataset, split: str = "test") -> float:
    """Fraction of correctly classified rows in the given split (_evaluate's one row)."""
    X, y = _split_rows(spec, dataset, split)
    return float(_evaluate(spec, _check_params(spec, params)[None], X, y)[1][0])
