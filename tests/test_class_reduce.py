"""The softmax's class-axis reductions (model._class_reduce) loop over the
class columns on tall stacks of few classes, and give NumPy's axis
reduction's bits: the helper itself, the loss pass built on it and the
stacked validation losses of model._evaluate."""

import numpy as np
import pytest

from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.model import CLASS_LOOP_MIN_ROWS, ModelSpec, _class_reduce
from samattr.oracle import validation_loss

# Row counts on both sides of the threshold, one-row and stacked.
SHAPES = [(3,), (CLASS_LOOP_MIN_ROWS - 1,), (CLASS_LOOP_MIN_ROWS,), (1, 5 * CLASS_LOOP_MIN_ROWS),
          (25, 99), (4, CLASS_LOOP_MIN_ROWS // 4)]
# Ties, both zeros, both infinities and both NaNs among ordinary values.
POOL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e308, -1e308, 5e-324,
                 np.inf, -np.inf, np.nan, -np.nan])
# The three benchmark models: fullbatch-logistic, minibatch-mlp-oracle,
# nonconvex-mlp-solve.
SPECS = [ModelSpec("logistic", (10, 2)), ModelSpec("mlp", (20, 32, 4)),
         ModelSpec("mlp", (10, 16, 3))]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def entries(rng, shape, C):
    """Pool entries, or small integers (many ties), in every third row."""
    Z = rng.choice(POOL, size=(*shape, C))
    flat = Z.reshape(-1, C)
    flat[::3] = rng.integers(-2, 3, size=flat[::3].shape) * rng.choice([1.0, -1.0], size=C)
    return Z


@pytest.mark.parametrize("C", range(2, 10))
@pytest.mark.parametrize("shape", SHAPES)
def test_add_equals_numpys_axis_sum_bit_for_bit(C, shape):
    Z = entries(np.random.default_rng(C), shape, C)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _class_reduce(np.add, Z), np.add.reduce(Z, axis=-1, keepdims=True)
    assert got.shape == want.shape == (*shape, 1)
    np.testing.assert_array_equal(bits(got), bits(want))


def test_an_all_negative_zero_row_sums_to_positive_zero():
    Z = np.full((2 * CLASS_LOOP_MIN_ROWS, 3), -0.0)
    assert not np.signbit(_class_reduce(np.add, Z)).any()
    assert not np.signbit(np.add.reduce(Z, axis=-1)).any()


@pytest.mark.parametrize("C", range(2, 10))
@pytest.mark.parametrize("shape", SHAPES)
def test_max_equals_numpys_axis_max_bit_for_bit(C, shape):
    """Bit for bit, except that NumPy keeps neither a NaN's sign nor, on
    every SIMD target, the same zero of a row whose maximum ties +0.0 with
    -0.0; such rows must agree in value (the next test shows the softmax
    does not see which zero is kept)."""
    Z = entries(np.random.default_rng(100 + C), shape, C)
    got, want = _class_reduce(np.maximum, Z), np.maximum.reduce(Z, axis=-1, keepdims=True)
    assert got.shape == want.shape == (*shape, 1)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    zero_tie = ((Z == 0.0) & np.signbit(Z)).any(-1, keepdims=True) & \
               ((Z == 0.0) & ~np.signbit(Z)).any(-1, keepdims=True) & (want == 0.0)
    exact = ~nan & ~zero_tie
    np.testing.assert_array_equal(bits(got)[exact], bits(want)[exact])
    np.testing.assert_array_equal(got[zero_tie], want[zero_tie])


def test_the_zero_a_tied_row_keeps_does_not_reach_the_softmax():
    Z = np.array([[0.0, -0.0, -3.0], [-0.0, 0.0, -800.0], [-0.0, -1.0, 0.0]])
    logp = []
    for zero in (0.0, -0.0):
        m = Z - zero
        logp.append(m - np.log(np.add.reduce(np.exp(m), axis=-1, keepdims=True)))
    np.testing.assert_array_equal(bits(logp[0]), bits(logp[1]))


def old_loss_pass(spec, layers, X, y):
    """_loss_pass before the class-axis helper: NumPy's axis reductions."""
    acts = mod._forward(spec, layers, X)
    Z = acts[-1]
    m = Z - Z.max(axis=-1, keepdims=True)
    logp = m - np.log(np.exp(m).sum(axis=-1, keepdims=True))
    label = np.arange(y.size) * Z.shape[-1] + y.ravel()
    return logp, -logp.reshape(-1)[label].reshape(y.shape)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "x".join(map(str, s.layer_sizes)))
@pytest.mark.parametrize("R,b", [(1, 16), (1, 32), (1, 100), (25, 99), (20, 32), (40, 4)])
def test_loss_pass_equals_the_axis_reduction_formula(spec, R, b):
    rng = np.random.default_rng(R * b)
    W = 2.0 * rng.standard_normal((R, spec.param_count))
    X = rng.standard_normal((R, b, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=(R, b))
    _, logp, _, losses = mod._loss_pass(spec, mod._unpack_rows(spec, W), X, y)
    old_logp, old_losses = old_loss_pass(spec, mod._unpack_rows(spec, W), X, y)
    np.testing.assert_array_equal(bits(logp), bits(old_logp))
    np.testing.assert_array_equal(bits(losses), bits(old_losses))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "x".join(map(str, s.layer_sizes)))
def test_a_tangent_block_gives_each_tangents_one_row_product(spec):
    """One tangent over 40 rows stays on the axis reduction; a block of 16
    crosses to the column loop, with the same bits in every row."""
    ds = make_blobs(40, spec.input_dim, spec.num_classes, 2.0, seed=3)
    rng = np.random.default_rng(4)
    X, y = mod._rows(spec, ds, np.arange(40), "hvp")
    apply_H = mod.hvp_operator(spec, rng.standard_normal(spec.param_count), X, y)[1]
    V = rng.standard_normal((16, spec.param_count))
    block = apply_H(V)
    for v, row in zip(V, block):
        np.testing.assert_array_equal(bits(apply_H(v)), bits(row))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "x".join(map(str, s.layer_sizes)))
@pytest.mark.parametrize("R,stack", [(1, None), (5, None), (40, None), (40, 7)])
def test_stacked_validation_losses_equal_the_validation_loss_loop(spec, R, stack, monkeypatch):
    """Each row is validation_loss of that row alone, and the unstacked
    loss pass over the val rows (validation_loss before the stacking),
    in one stack or in stacks of 7 rows and a remainder."""
    ds = make_blobs(100, spec.input_dim, spec.num_classes, 3.0, seed=R)
    if stack:
        width = max(spec.layer_sizes[1:])
        monkeypatch.setattr(mod, "_EVAL_STACK_FLOATS", stack * ds.indices("val").size * width)
    W = np.random.default_rng(R).standard_normal((R, spec.param_count))
    val = ds.indices("val")
    X, y = ds.features[val], ds.labels[val]
    unstacked = [float(mod._loss_pass(spec, mod._unpack(spec, w), X, y)[3].sum()) for w in W]
    stacked = mod._evaluate(spec, W, *mod._split_rows(spec, ds, "val"))[0]
    np.testing.assert_array_equal(bits(stacked), bits(np.array(unstacked)))
    one_by_one = np.array([validation_loss(spec, w, ds) for w in W])
    np.testing.assert_array_equal(bits(stacked), bits(one_by_one))
