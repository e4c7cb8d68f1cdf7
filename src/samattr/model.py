"""Small differentiable classifiers over flat parameter vectors.

Two model kinds share one code path: ``logistic`` is a zero-hidden-layer
MLP. Losses are softmax cross-entropy, computed in one place
(``_loss_pass``); gradients are hand-written reverse-mode through one delta
recursion (``_backprop``). Hessian-vector products propagate a forward
tangent through both passes, so they are exact (no finite differences):
``hvp_operator`` runs the gradient's primal pass once per linearization
point and adds only the tangent sweeps. Everything is float64 and
vectorized over the batch axis.

The softmax's reductions over the class axis (the max shift, the exp-sum
and the curvature's tangent sum) go through _class_reduce. NumPy reduces
a short last axis row by row, at tens of nanoseconds a row, so with fewer
than 8 classes and at least CLASS_LOOP_MIN_ROWS (128) rows it makes one
vectorized call per class column instead, with the same bits. Stacks of
many rows (a retrain sweep's replicas, gif's replay blocks, a block of
tangents) take the column loop; a one-row stack of fewer rows (the
trainer's one-replica step on a minibatch, a one-tangent HVP over a small
train split) keeps NumPy's axis reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError

Array = np.ndarray

# Fewest rows at which _class_reduce loops over the class columns. Timed
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


def _unpack(spec: ModelSpec, params: Array) -> list[tuple[Array, Array]]:
    """Layers of one parameter vector: the no-leading-axis case of _unpack_rows."""
    return _unpack_rows(spec, _check_params(spec, params))


def init_params(spec: ModelSpec, seed: int) -> Array:
    """Zero-mean uniform weights scaled by 1/sqrt(fan_in); biases zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.param_count)
    for W, _ in _unpack_rows(spec, params):
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


class _Workspace:
    """The kernel's output arrays for stacked batches X (R, b, d), y (R, b), made once by a
    caller that runs it many times on that shape. _forward, _loss_pass, _backprop and
    _summed_grad given one write each result into its array (out=), over the last call's;
    given None (ws and ws.<array> is then None) they allocate. Lists are indexed by layer."""

    def __init__(self, spec: ModelSpec, R: int, b: int):
        sizes, C = spec.layer_sizes, spec.num_classes
        self.acts = [np.empty((R, b, k)) for k in sizes[1:]]
        self.deltas = [np.empty((R, b, k)) for k in sizes[1:]]
        self.s = [None] + [np.empty((R, b, k)) for k in sizes[1:-1]]
        self.phi1 = [None] + [np.empty((R, b, k)) for k in sizes[1:-1]]
        self.reduce, self.logp, self.exp = (np.empty((R, b, k)) for k in (1, C, C))
        self.rows = np.arange(0, R * b * C, C)  # flat position in logp of each example's row
        self.label, self.loss = np.empty(R * b, np.int64), np.empty(R * b)
        self.grad = np.empty((R, spec.param_count))
        self.grad_layers = _unpack_rows(spec, self.grad)


def _act(spec: ModelSpec, Z: Array) -> Array:
    """The activation, in place of Z."""
    if spec.activation == "tanh":
        return np.tanh(Z, out=Z)
    return np.maximum(Z, 0.0, out=Z)


def _act_deriv(spec: ModelSpec, A: Array, out: Array | None = None) -> Array:
    # Expressed through the activation value; for relu, A > 0 iff Z > 0, as a
    # boolean mask unless out is float: either multiplies as 1.0 or 0.0.
    if spec.activation == "tanh":
        d = np.multiply(A, A, out=out)
        return np.subtract(1.0, d, out=d)
    return np.greater(A, 0.0, out=out)


def _act_second_deriv(spec: ModelSpec, A: Array) -> Array:
    if spec.activation == "tanh":
        return -2.0 * A * (1.0 - A * A)
    return np.zeros_like(A)


def _forward(spec: ModelSpec, layers, X: Array, ws: _Workspace | None = None) -> list[Array]:
    """Return activations [A0=X, A1, ..., Z_L]; the last entry is raw logits.

    layers come from _unpack, or from _unpack_rows with X stacked (R, b, d)
    to match (one parameter row broadcasts over every stack): each stack
    row then goes through its own matmuls."""
    acts = [X]
    L = len(layers)
    for idx, (W, b) in enumerate(layers):
        Z = np.matmul(acts[-1], W.swapaxes(-1, -2), out=ws and ws.acts[idx])
        Z += b[..., None, :]
        acts.append(Z if idx == L - 1 else _act(spec, Z))
    return acts


def _class_reduce(ufunc: np.ufunc, Z: Array, out: Array | None = None) -> Array:
    """ufunc.reduce(Z, axis=-1, keepdims=True) for ufunc np.maximum or
    np.add, with the same bits. Below 8 entries NumPy's add-reduce sums a
    row left to right starting from +0.0 (so an all -0.0 row sums to
    +0.0), and the column loop does the same; from 8 entries NumPy sums
    pairwise, so those calls, and those with fewer than
    CLASS_LOOP_MIN_ROWS rows, keep the axis reduction. A maximum is exact
    in any order, save for a NaN's sign and for which zero a row that ties
    +0.0 with -0.0 keeps, which NumPy's own SIMD paths do not agree on;
    the softmax shift by either zero gives the same bits, because such a
    row's exp-sum is at least 2. out, if given, is a C-contiguous
    (..., 1) array that takes the result."""
    C = Z.shape[-1]
    if C >= 8 or Z.size < C * CLASS_LOOP_MIN_ROWS:
        return ufunc.reduce(Z, axis=-1, keepdims=True, out=out)
    cols = Z.reshape(-1, C).T
    # The first column: plus +0.0 for a sum, itself for a maximum (max(x, x) is x).
    out = ufunc(cols[0], 0.0 if ufunc is np.add else cols[0],
                out=None if out is None else out.reshape(-1))
    for col in cols[1:]:
        ufunc(out, col, out=out)
    return out.reshape(*Z.shape[:-1], 1)


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


def _loss_pass(spec: ModelSpec, layers, X: Array, y: Array, ws: _Workspace | None = None,
               loss: bool = True) -> tuple[list, Array, Array, Array | None]:
    """The forward pass and softmax cross-entropy; layers and X as for
    _forward, y (..., b) the labels. Returns the activations, the
    log-probabilities logp (..., b, C), the flat position in logp of each
    label logit and the per-example losses (..., b), or None if not loss.
    Gradients and curvature go on to _backprop; a loss-only caller stops here."""
    acts = _forward(spec, layers, X, ws)
    Z = acts[-1]
    C = Z.shape[-1]
    m = np.subtract(Z, _class_reduce(np.maximum, Z, ws and ws.reduce), out=ws and ws.logp)
    s = _class_reduce(np.add, np.exp(m, out=ws and ws.exp), ws and ws.reduce)
    logp = np.subtract(m, np.log(s, out=s), out=m)
    label = np.add(ws.rows if ws else np.arange(0, y.size * C, C), y.ravel(), out=ws and ws.label)
    if not loss:
        return acts, logp, label, None
    # "wrap" takes into out without a copy of it; every label is in range.
    losses = np.take(logp.reshape(-1), label, out=ws and ws.loss, mode="wrap")
    return acts, logp, label, np.negative(losses, out=losses).reshape(y.shape)


def _backprop(spec: ModelSpec, layers, acts: list[Array], logp: Array, label: Array,
              ws: _Workspace | None = None) -> tuple[list, list, list]:
    """The backward delta recursion over _loss_pass's outputs: deltas[l],
    the loss's derivative at layer l's pre-activations, starting from
    exp(logp) minus the label one-hot; and, for l >= 1, s[l] = deltas[l] @
    W_l and phi1[l] = act'(acts[l]), so that deltas[l - 1] = phi1[l] * s[l]."""
    L = len(layers)
    delta = np.exp(logp, out=ws and ws.deltas[L - 1])
    np.subtract.at(delta.reshape(-1), label, 1.0)
    deltas: list[Array] = [None] * L
    s: list[Array] = [None] * L
    phi1: list[Array] = [None] * L
    for l in range(L - 1, -1, -1):
        deltas[l] = delta
        if l > 0:
            s[l] = np.matmul(delta, layers[l][0], out=ws and ws.s[l])
            phi1[l] = _act_deriv(spec, acts[l], ws and ws.phi1[l])
            delta = np.multiply(phi1[l], s[l], out=ws and ws.deltas[l - 1])
    return deltas, s, phi1


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
    layers = _unpack_rows(spec, W)
    acts, logp, label, losses = _loss_pass(spec, layers, X, y)
    deltas = _backprop(spec, layers, acts, logp, label)[0]
    return losses.sum(axis=-1), list(zip(deltas, acts[:-1]))


def stacked_loss_grad(spec: ModelSpec, W: Array, X: Array, y: Array) -> tuple[Array, Array]:
    """Sum of per-example losses (R,) and summed gradients (R, P) for R
    parameter rows W (R, P), row r over its own batch X[r] (b, d), y[r] (b,):
    stacked_loss_factors reduced over each batch, delta_l^T a_l and the sum
    of delta_l. Like the factors, row r does not depend on the other rows.
    """
    loss, factors = stacked_loss_factors(spec, W, X, y)
    return loss, _summed_grad(spec, factors)


def _summed_grad(spec: ModelSpec, factors, ws: _Workspace | None = None) -> Array:
    """Per-example factors (delta_l, a_l) summed over their batch axis and
    packed (..., P), into ws.grad if ws is given: delta_l^T a_l for layer
    l's weights, sum of delta_l for its bias."""
    factors = list(factors)
    out = ws.grad if ws else np.empty((*factors[0][0].shape[:-2], spec.param_count))
    for (d, a), (gW, gb) in zip(factors, ws.grad_layers if ws else _unpack_rows(spec, out)):
        np.matmul(d.swapaxes(-1, -2), a, out=gW)
        np.add.reduce(d, axis=-2, out=gb)  # np.sum's ufunc without its Python wrapper
    return out


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
    the gradient's primal pass (_loss_pass and _backprop) runs here, with
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
    layers = _unpack(spec, params)
    L = len(layers)
    acts, logp, label, _ = _loss_pass(spec, layers, X, y, loss=False)
    deltas, s, phi1 = _backprop(spec, layers, acts, logp, label)
    grad = scale * _summed_grad(spec, zip(deltas, acts[:-1]))
    P = np.exp(logp)
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
    logits = _forward(spec, _unpack(spec, params), _check_features(spec, x))[-1][0]
    return int(np.argmax(logits)), logits


def predict_labels(spec: ModelSpec, params: Array, X: Array) -> Array:
    """Vectorized argmax labels for a matrix of inputs."""
    logits = _forward(spec, _unpack(spec, params), _check_features(spec, X))[-1]
    return np.argmax(logits, axis=1).astype(np.int64)


def _evaluate(spec: ModelSpec, W: Array, X: Array, y: Array) -> tuple[Array, Array]:
    """Summed loss (R,) and accuracy (R,) of every row of W (R, P) over checked rows X, y:
    stacked _loss_pass calls of at most _EVAL_STACK_FLOATS activations a layer, labels the
    logits' argmax as in predict_labels. Row r does not depend on the other rows, bit for bit."""
    size = max(1, _EVAL_STACK_FLOATS // (y.size * max(spec.layer_sizes[1:])))
    losses, accs = np.empty(len(W)), np.empty(len(W))
    for lo in range(0, len(W), size):
        rows = W[lo : lo + size]
        acts, _, _, loss = _loss_pass(
            spec, _unpack_rows(spec, rows), X[None], np.broadcast_to(y, (len(rows), y.size)))
        losses[lo : lo + size] = loss.sum(axis=-1)
        accs[lo : lo + size] = np.mean(np.argmax(acts[-1], axis=-1) == y, axis=-1)
    return losses, accs


def accuracy(spec: ModelSpec, params: Array, dataset: Dataset, split: str = "test") -> float:
    """Fraction of correctly classified rows in the given split (_evaluate's one row)."""
    X, y = _split_rows(spec, dataset, split)
    return float(_evaluate(spec, _check_params(spec, params)[None], X, y)[1][0])
