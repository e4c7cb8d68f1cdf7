"""Blocks of right-hand sides: model.hvp on (m, P) tangents gives, row for
row, what the one-vector calls give; neumann_ihvp takes one vector and
refuses a block."""

import re

import numpy as np
import pytest

from samattr import model as mod
from samattr.errors import DivergenceError, InvalidInputError
from samattr.influence import NeumannConfig, neumann_ihvp

SPECS = [
    mod.ModelSpec(kind="logistic", layer_sizes=(4, 3)),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 3), activation="tanh"),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 3), activation="relu"),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.activation}-{len(s.layer_sizes)}")
def test_hvp_block_equals_stacked_vector_calls(spec):
    rng = np.random.default_rng(3)
    ds = mod.Dataset(features=rng.standard_normal((30, 4)), labels=rng.integers(0, 3, size=30))
    params = 0.5 * rng.standard_normal(spec.param_count)
    idx = np.arange(5, 30)
    V = rng.standard_normal((7, spec.param_count))
    V[2] = 0.0
    block = mod.hvp(spec, params, ds, idx, V, 0.04)
    assert block.shape == V.shape
    assert np.array_equal(block, np.stack([mod.hvp(spec, params, ds, idx, v, 0.04) for v in V]))
    # A row's result does not depend on which rows share its block.
    assert np.array_equal(mod.hvp(spec, params, ds, idx, V[3:5], 0.04), block[3:5])
    assert mod.hvp(spec, params, ds, idx, V[0], 0.04).shape == (spec.param_count,)


def test_hvp_rejects_bad_tangent_shapes():
    spec = SPECS[0]
    ds = mod.Dataset(features=np.ones((3, 4)), labels=np.array([0, 1, 2]))
    params = np.zeros(spec.param_count)
    for bad in (np.zeros((2, spec.param_count + 1)), np.zeros((2, 2, spec.param_count))):
        with pytest.raises(InvalidInputError):
            mod.hvp(spec, params, ds, [0, 1], bad)


@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (2, 2, 4), ()],
                         ids=["one-row", "rows", "stack", "scalar"])
def test_neumann_rejects_a_block(shape):
    # A block, even of one row, and a scalar never reach the operator.
    def apply_A(x):
        raise AssertionError("the operator was applied")

    with pytest.raises(InvalidInputError,
                       match=rf"^neumann_ihvp takes one right-hand side \(P,\), got shape "
                             rf"{re.escape(str(shape))}$"):
        neumann_ihvp(apply_A, np.ones(shape), NeumannConfig())


def test_neumann_one_diverging_row_raises():
    d = np.array([1.0, 2000.0])  # alpha * 2000 > 2: the second direction blows up
    cfg = NeumannConfig(order=1000, alpha=0.1, damp=0.0)
    good, bad = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    np.testing.assert_allclose(neumann_ihvp(lambda x: d * x, good, cfg), good, rtol=1e-8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        neumann_ihvp(lambda x: d * x, bad, cfg)
