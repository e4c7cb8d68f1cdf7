"""gif scores project each replay block's per-example gradients onto the
queries: the scores of a set are its vector's dot products with them,
and no (n, P) vector is built on the way."""

import tracemalloc

import numpy as np
import pytest

from samattr import influence, samtrain
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.influence import NeumannConfig, influence_scores, influence_vectors
from samattr.samtrain import SAMConfig, train_sam

SPECS = {
    "logistic": mod.ModelSpec(kind="logistic", layer_sizes=(4, 3)),
    "tanh": mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 3), activation="tanh"),
    "relu": mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 3), activation="relu"),
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def trained(request):
    spec = SPECS[request.param]
    ds = make_blobs(30, 4, 3, 2.5, seed=36)
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.2, batch_size=6, steps=25, seed=36)
    params, traj = train_sam(spec, ds, sam)
    return spec, ds, sam, params, traj


def _args(trained, ks, mode):
    spec, ds, sam, params, traj = trained
    return ("gif", spec, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(), ks, traj, mode)


def _queries(spec, m):
    return np.random.default_rng(m).standard_normal((m, spec.param_count))


def _fan_sum(spec):
    return sum(spec.layer_sizes[:-1]) + sum(spec.layer_sizes[1:])


def _sets(n):
    # Nested prefixes as valuate removes them, an unsorted set and the empty set.
    order = np.random.default_rng(5).permutation(n)
    return [order[:2], order[:5], order[:9], [n - 1, 0, 7], [3], []]


# Block budgets of one six-row step's factors, of 4 steps' (windows of 4
# that 25 steps do not fill evenly; 10 queries project them in runs of
# fewer steps), and the default.
BUDGETS = ("step", "4 steps", "default")


def _budget(spec, name):
    F = 6 * _fan_sum(spec)
    return {"step": 1, "4 steps": 4 * F + 1, "default": influence.GIF_BLOCK_FLOATS}[name]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("m", [1, 10])
@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_scores_are_the_vectors_dot_products(trained, monkeypatch, budget, m, mode):
    spec, ds = trained[:2]
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", _budget(spec, budget))
    n = ds.indices("train").size
    q = _queries(spec, m)
    for ks in (np.arange(n), [11, 3, 11, 29, 3, 0], _sets(n)):
        want = -(influence_vectors(*_args(trained, ks, mode)) @ q.T)
        got = influence_scores(*_args(trained, ks, mode), q)
        assert got.shape == (len(ks), m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert not influence_scores(*_args(trained, [[]], mode), q).any()
    assert influence_scores(*_args(trained, [0, 5], mode), q[:0]).shape == (2, 0)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("m", [1, 10])
@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_a_points_scores_do_not_depend_on_the_other_points(trained, monkeypatch, budget, m,
                                                           mode):
    spec, ds = trained[:2]
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", _budget(spec, budget))
    n = ds.indices("train").size
    q = _queries(spec, m)
    full = influence_scores(*_args(trained, range(n), mode), q)
    assert np.all(np.any(full, axis=1))
    for ks in ([2, 7, 11, 23, 29], [11], [29, 3, 11, 3]):
        assert np.array_equal(influence_scores(*_args(trained, ks, mode), q), full[ks])


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_two_kernel_calls_per_block_and_no_vectors(trained, monkeypatch, mode):
    # One kernel call per block: the trajectory records the perturbed
    # points, so no batch gradient and no perturbation is recomputed.
    spec, ds, _, _, traj = trained
    n = ds.indices("train").size
    rows = n if mode == "gd" else 6
    C = 4
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", C * rows * _fan_sum(spec) + 1)
    calls, depth = [], []

    def counted(name, kernel):
        def call(*args):
            if not depth:
                calls.append(name)
            depth.append(name)
            try:
                return kernel(*args)
            finally:
                depth.pop()

        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("per-step kernel call or per-point vector")

    monkeypatch.setattr(mod, "stacked_loss_grad", counted("grad", mod.stacked_loss_grad))
    monkeypatch.setattr(mod, "stacked_loss_factors", counted("factors", mod.stacked_loss_factors))
    for module in (influence, samtrain):
        monkeypatch.setattr(module, "worst_perturbation",
                            counted("eps", samtrain.worst_perturbation))
    for name in ("subset_loss_grad", "example_grads"):
        monkeypatch.setattr(mod, name, forbidden)
    for name in ("_add_gif_terms", "_gif_vectors"):
        monkeypatch.setattr(influence, name, forbidden)
    influence_scores(*_args(trained, range(n), mode), _queries(spec, 10))
    assert calls == ["factors"] * -(-len(traj.batches) // C)


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_memory_stays_within_the_block_budget(monkeypatch, mode):
    """Scoring every point holds a few blocks' floats, not an (n, P) array."""
    ds = make_blobs(120, 20, 4, 2.5, seed=37)
    spec = mod.ModelSpec(kind="mlp", layer_sizes=(20, 24, 4), activation="tanh")
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.2, batch_size=12, steps=100, seed=37)
    params, traj = train_sam(spec, ds, sam)
    n = ds.indices("train").size
    budget = 2**12
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", budget)
    # A block holds at least one step's factors: the whole train split's in gd mode.
    block = max(budget, (n if mode == "gd" else 12) * _fan_sum(spec))
    q = _queries(spec, 10)
    args = ("gif", spec, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(), range(n), traj,
            mode, q)
    influence_scores(*args)  # warm caches outside the trace
    tracemalloc.start()
    try:
        scores = influence_scores(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= scores.nbytes + 6 * block * 8
    assert peak < n * spec.param_count * 8
