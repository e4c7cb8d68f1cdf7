"""The trajectory estimator replays the trajectory once for every scored
point, in stacked blocks of steps, from per-example gradient factors at
each step's perturbed parameters."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from samattr import influence, samtrain
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.influence import NeumannConfig, influence_vectors, sam_gif
from samattr.samtrain import (
    SAMConfig,
    read_trajectory,
    train_sam,
    worst_perturbation,
    write_trajectory,
)


@pytest.fixture(scope="module")
def minibatch_mlp():
    ds = make_blobs(30, 4, 3, 2.5, seed=31)
    spec = mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 3), activation="tanh")
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.2, batch_size=6, steps=25, seed=31)
    params, traj = train_sam(spec, ds, sam)
    return spec, ds, sam, params, traj


def _gif(setup, ks, mode):
    spec, ds, sam, params, traj = setup
    return influence_vectors("gif", spec, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(),
                             ks, traj, mode)


def _plain_gif(traj, spec, ds, sam, ks, mode):
    """The replay one step at a time, on the weights w_t of a plain SAM
    loop over the trajectory's batches, not on its recorded rows: a
    perturbation per step from its batch gradient, then the per-example
    gradients at w_t + eps_t of the scored points its batch used."""
    rows = ds.indices("train")
    ks = np.asarray(ks, dtype=np.int64)
    total = np.zeros((ks.size, spec.param_count))
    w = mod.init_params(spec, sam.seed)
    for t, (batch, weight) in enumerate(zip(traj.batches, traj.weights)):
        _, g = mod.subset_loss_grad(spec, w, ds, rows[batch], 1.0 / batch.size)
        w_pert = w + worst_perturbation(g, sam.rho, sam.p)
        used = np.flatnonzero(np.isin(ks, batch)) if mode == "sgd" else np.arange(ks.size)
        if used.size:
            total[used] += weight * mod.example_grads(spec, w_pert, ds, rows[ks[used]])
        _, g_pert = mod.subset_loss_grad(spec, w_pert, ds, rows[batch], 1.0 / batch.size)
        w = w - sam.eta_at(t) * (g_pert + sam.lam * w)
    assert np.allclose(w, traj.final_params, rtol=0.0, atol=1e-12)
    return -total


SPECS = [
    mod.ModelSpec(kind="logistic", layer_sizes=(4, 3)),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 3), activation="tanh"),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 5, 3), activation="relu"),
]
SPEC_IDS = ["logistic", "tanh", "relu"]


def _fan_sum(spec):
    """Factor floats per input row: sum(fan_in + fan_out) over the layers."""
    return sum(spec.layer_sizes[:-1]) + sum(spec.layer_sizes[1:])


def _close_rows(got, want):
    """Each row within 1e-12 of its largest entry: the replay adds a
    point's terms in another grouping than the one-step loop does."""
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("epoch_shuffled", [False, True], ids=["iid", "epochs"])
def test_stacked_replay_equals_plain_loop(spec, p, epoch_shuffled, monkeypatch):
    ds = make_blobs(30, 4, 3, 2.5, seed=33)
    sam = SAMConfig(rho=0.05, p=p, lam=0.01, eta=0.2, batch_size=6, steps=25, seed=33,
                    epoch_shuffled=epoch_shuffled)
    params, traj = train_sam(spec, ds, sam)
    n = ds.indices("train").size
    P = spec.param_count
    samples = {"full": np.arange(n), "sampled": np.array([23, 2, 7, 2, 29, 11, 7]),
               "empty": np.array([], dtype=np.int64)}
    # Block budgets of 1, 3 and 4 six-row steps' factors in sgd mode (25
    # steps: none divides it), then the default budget.
    F = 6 * _fan_sum(spec)
    for budget in (1, 3 * F, 4 * F + 1, influence.GIF_BLOCK_FLOATS):
        monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", budget)
        for mode in ("sgd", "gd"):
            full = _gif((spec, ds, sam, params, traj), samples["full"], mode)
            for ks in samples.values():
                got = _gif((spec, ds, sam, params, traj), ks, mode)
                assert got.shape == (ks.size, P)
                _close_rows(got, _plain_gif(traj, spec, ds, sam, ks, mode))
                # A row does not depend on the other points scored with it.
                assert np.array_equal(got, full[ks])


def _pack(parts):
    """Parameter rows packed from per-layer (W, b) parts with any leading axes."""
    lead = parts[0][1].shape[:-1]
    return np.concatenate([a.reshape(*lead, -1) for W, b in parts for a in (W, b)], axis=-1)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_factors_reduce_to_stacked_loss_grad(spec):
    ds = make_blobs(30, 4, 3, 2.5, seed=32)
    rng = np.random.default_rng(3)
    W = mod.init_params(spec, 5) + 0.1 * rng.standard_normal((3, spec.param_count))
    idx = np.array([[3, 0, 17, 16], [29, 8, 1, 2], [5, 6, 4, 9]])
    X, y = ds.features[idx], ds.labels[idx]
    loss, G = mod.stacked_loss_grad(spec, W, X, y)
    f_loss, factors = mod.stacked_loss_factors(spec, W, X, y)
    assert np.array_equal(f_loss, loss)
    sizes = spec.layer_sizes
    for (d, a), fan_in, fan_out in zip(factors, sizes[:-1], sizes[1:]):
        assert d.shape == (*idx.shape, fan_out) and a.shape == (*idx.shape, fan_in)
    # The reduction over each batch is stacked_loss_grad's, bit for bit.
    reduced = _pack([(d.swapaxes(-1, -2) @ a, d.sum(axis=-2)) for d, a in factors])
    assert np.array_equal(reduced, G)
    # Example i's outer products are its gradient, and they sum to the row's.
    outer = _pack([(d[..., :, None] * a[..., None, :], d) for d, a in factors])
    for r in range(len(W)):
        want = mod.example_grads(spec, W[r], ds, idx[r])
        assert np.all(np.abs(outer[r] - want) <= 1e-12 * np.abs(want).max())
        assert np.all(np.abs(outer[r].sum(axis=0) - G[r]) <= 1e-12 * np.abs(G[r]).max())


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_replay_kernel_call_count(minibatch_mlp, monkeypatch, mode):
    """A replay makes 1 kernel call per block, at the recorded points, and
    no per-step ones, no batch gradient and no perturbation: one block per
    window of C steps that scores a point, so ceil(T / C) blocks when every
    step does, for a C that does not divide T."""
    spec, ds, _, _, traj = minibatch_mlp
    n = ds.indices("train").size
    rows = n if mode == "gd" else 6  # the train split in gd; a batch of 6 in sgd
    C = 4
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", C * rows * _fan_sum(spec) + 1)
    # Each top-level call is recorded, not the factor call inside stacked_loss_grad.
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
        raise AssertionError("per-step kernel call")

    monkeypatch.setattr(mod, "stacked_loss_grad", counted("grad", mod.stacked_loss_grad))
    monkeypatch.setattr(mod, "stacked_loss_factors", counted("factors", mod.stacked_loss_factors))
    for module in (influence, samtrain):
        monkeypatch.setattr(module, "worst_perturbation",
                            counted("eps", samtrain.worst_perturbation))
    monkeypatch.setattr(mod, "subset_loss_grad", forbidden)
    monkeypatch.setattr(mod, "example_grads", forbidden)
    _gif(minibatch_mlp, np.arange(n), mode)
    assert traj.total_steps % C != 0
    assert calls == ["factors"] * math.ceil(traj.total_steps / C)
    # One point: in sgd only the windows holding one of its steps make a block.
    calls.clear()
    _gif(minibatch_mlp, [11], mode)
    used = np.isin(traj.batches, 11).any(axis=1) if mode == "sgd" else np.ones(len(traj.batches))
    windows = np.add.reduceat(used, np.arange(0, len(used), C)) > 0
    assert windows.sum() < len(windows) or mode == "gd"
    assert calls == ["factors"] * int(windows.sum())


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_replay_memory_is_bounded_by_the_block_budget(monkeypatch, mode):
    """A replay holds its result plus a few blocks' worth of floats,
    however many steps and points it scores."""
    ds = make_blobs(60, 4, 3, 2.5, seed=34)
    spec = mod.ModelSpec(kind="mlp", layer_sizes=(4, 24, 3), activation="tanh")
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.2, batch_size=12, steps=200, seed=34)
    _, traj = train_sam(spec, ds, sam)
    ks = np.arange(ds.indices("train").size)
    budget = 2**12
    monkeypatch.setattr(influence, "GIF_BLOCK_FLOATS", budget)
    train = mod._split_rows(spec, ds, "train")
    influence._gif_vectors(traj, spec, *train, ks, mode)  # warm caches outside the trace
    tracemalloc.start()
    try:
        out = influence._gif_vectors(traj, spec, *train, ks, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 6 * budget * 8


@pytest.mark.parametrize("spec", [
    mod.ModelSpec(kind="logistic", layer_sizes=(4, 3)),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 3), activation="tanh"),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 5, 3), activation="relu"),
], ids=SPEC_IDS)
def test_example_grads_rows(spec):
    ds = make_blobs(30, 4, 3, 2.5, seed=32)
    params = mod.init_params(spec, 5) + 0.1
    idx = np.array([3, 0, 17, 17, 29, 8])
    G = mod.example_grads(spec, params, ds, idx)
    assert G.shape == (idx.size, spec.param_count)
    _, total = mod.subset_loss_grad(spec, params, ds, idx)
    assert np.abs(G.sum(axis=0) - total).max() <= 1e-12 * np.abs(total).max()
    for i, k in enumerate(idx):
        assert np.array_equal(G[i], mod.subset_loss_grad(spec, params, ds, k)[1])


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_sampled_points_match_full_replay(minibatch_mlp, mode):
    spec, ds, _, _, traj = minibatch_mlp
    n = ds.indices("train").size
    full = _gif(minibatch_mlp, range(n), mode)
    sample = np.array([2, 7, 11, 23, 29])
    assert np.array_equal(_gif(minibatch_mlp, sample, mode), full[sample])
    assert np.array_equal(sam_gif(traj, spec, ds, 11, mode), full[11])
    assert np.all(np.any(full, axis=1))


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_duplicate_unsorted_points_get_their_own_rows(minibatch_mlp, mode):
    spec, ds, sam, _, traj = minibatch_mlp
    full = _gif(minibatch_mlp, range(ds.indices("train").size), mode)
    ks = np.array([11, 3, 11, 29, 3, 0, 11])
    got = _gif(minibatch_mlp, ks, mode)
    assert np.array_equal(got, full[ks])
    _close_rows(got, _plain_gif(traj, spec, ds, sam, ks, mode))


def test_read_trajectory_needs_no_settings(minibatch_mlp, tmp_path):
    spec, ds, _, _, traj = minibatch_mlp
    path = tmp_path / "run.samt"
    write_trajectory(traj, path)
    loaded = read_trajectory(path)
    ks = np.arange(ds.indices("train").size)
    train = mod._split_rows(spec, ds, "train")
    assert np.array_equal(influence._gif_vectors(loaded, spec, *train, ks, "sgd"),
                          influence._gif_vectors(traj, spec, *train, ks, "sgd"))


@pytest.mark.parametrize("bad", [-1, 30])
def test_out_of_range_batch_entry_rejected(minibatch_mlp, monkeypatch, bad):
    spec, ds, _, _, traj = minibatch_mlp
    assert ds.indices("train").size == 30
    broken = replace(traj, batches=traj.batches.copy())
    broken.batches[7, -1] = bad

    def no_replay(*args, **kwargs):
        raise AssertionError("replay work started")

    monkeypatch.setattr(mod, "stacked_loss_grad", no_replay)
    with pytest.raises(InvalidInputError, match="step 7: batch entry out of range"):
        sam_gif(broken, spec, ds, 0)


def test_out_of_range_index_rejected_before_replay(minibatch_mlp, monkeypatch):
    spec, ds, _, _, traj = minibatch_mlp
    n = ds.indices("train").size

    def no_replay(*args, **kwargs):
        raise AssertionError("replay work started")

    monkeypatch.setattr(mod, "subset_loss_grad", no_replay)
    monkeypatch.setattr(mod, "example_grads", no_replay)
    monkeypatch.setattr(mod, "stacked_loss_grad", no_replay)
    for ks in ([0, n], [-1, 3]):
        with pytest.raises(InvalidInputError):
            _gif(minibatch_mlp, ks, "sgd")
    with pytest.raises(InvalidInputError):
        sam_gif(traj, spec, ds, n)
