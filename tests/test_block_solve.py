"""Blocks of right-hand sides: model.hvp on (m, P) tangents and
neumann_ihvp on (m, P) gradients give, row for row, what the one-vector
calls give."""

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


def _spd(P, seed):
    M = np.random.default_rng(seed).standard_normal((P, P))
    return M @ M.T / P + 0.2 * np.eye(P)


def _rowwise(A):
    """x -> A x for one vector or for each row of a block, every row as its
    own product, so block and vector calls do the same arithmetic."""
    return lambda x: (x[..., None, :] @ A)[..., 0, :]


def test_neumann_block_equals_per_row_solves():
    A = _spd(12, 5)
    rng = np.random.default_rng(6)
    # Rows of very different size stop at different iterations under the
    # absolute L1 stop; the zero row stops after one.
    G = rng.standard_normal((5, 12)) * np.array([[1.0], [1e-3], [0.0], [1e-6], [30.0]])
    cfg = NeumannConfig(order=3000, alpha=0.9 / np.linalg.eigvalsh(A)[-1], zeta=1e-10)
    seen = []

    def apply_A(x):
        seen.append(1 if x.ndim == 1 else x.shape[0])
        return _rowwise(A)(x)

    block = neumann_ihvp(apply_A, G, cfg)
    block_calls = list(seen)
    rows, iters = [], []
    for g in G:
        seen.clear()
        rows.append(neumann_ihvp(apply_A, g, cfg))
        iters.append(len(seen))
    assert np.array_equal(block, np.stack(rows))
    assert np.all(block[2] == 0.0)
    assert len(set(iters)) > 2
    # Only rows still running reach the operator: the block's row count
    # shrinks, and its total is the per-row iteration counts summed.
    assert block_calls == sorted(block_calls, reverse=True) and block_calls[0] == 5
    assert len(block_calls) == max(iters) and sum(block_calls) == sum(iters)
    np.testing.assert_allclose(block[0], np.linalg.solve(A + 0.01 * np.eye(12), G[0]), rtol=1e-6)


def test_neumann_one_diverging_row_raises():
    d = np.array([1.0, 2000.0])  # alpha * 2000 > 2: the second direction blows up
    cfg = NeumannConfig(order=1000, alpha=0.1, damp=0.0)
    good, bad = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    np.testing.assert_allclose(neumann_ihvp(lambda x: d * x, good[None], cfg)[0], good, rtol=1e-8)
    # The bad row overflows while the good rows around it are still running.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        neumann_ihvp(lambda x: d * x, np.stack([good, bad, good]), cfg)
