"""The trajectory estimator replays the trajectory once for every scored
point, from per-example gradients at each perturbed checkpoint."""

import numpy as np
import pytest

from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.influence import NeumannConfig, influence_vectors, sam_gif
from samattr.samtrain import SAMConfig, train_sam


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


@pytest.mark.parametrize("spec", [
    mod.ModelSpec(kind="logistic", layer_sizes=(4, 3)),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 6, 3), activation="tanh"),
    mod.ModelSpec(kind="mlp", layer_sizes=(4, 5, 3), activation="relu"),
], ids=["logistic", "tanh", "relu"])
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


def test_out_of_range_index_rejected_before_replay(minibatch_mlp, monkeypatch):
    spec, ds, _, _, traj = minibatch_mlp
    n = ds.indices("train").size

    def no_replay(*args, **kwargs):
        raise AssertionError("replay work started")

    monkeypatch.setattr(mod, "subset_loss_grad", no_replay)
    monkeypatch.setattr(mod, "example_grads", no_replay)
    for ks in ([0, n], [-1, 3]):
        with pytest.raises(InvalidInputError):
            _gif(minibatch_mlp, ks, "sgd")
    with pytest.raises(InvalidInputError):
        sam_gif(traj, spec, ds, n)
