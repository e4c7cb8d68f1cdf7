"""Each split's rows are checked once, where they enter. A public entry
point gathers and checks every split it reads with model._split_rows or
model._rows, and every function below it takes the checked (X, y) arrays,
so no layer gathers the same rows again."""

import numpy as np
import pytest

from samattr import influence, oracle
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.influence import NeumannConfig
from samattr.model import ModelSpec
from samattr.samtrain import SAMConfig, train_sam

SPEC = ModelSpec(kind="mlp", layer_sizes=(3, 5, 3))
ONE_TRAIN_GATHER = [("_split_rows", "train"), ("indices", "train")]


@pytest.fixture(scope="module")
def trained():
    ds = make_blobs(30, 3, 3, 1.0, seed=5)
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.5, batch_size=10, steps=30, seed=5)
    params, traj = train_sam(SPEC, ds, sam)
    return ds, sam, params, traj


@pytest.fixture
def checks(monkeypatch):
    """(function, split or caller) of every _split_rows, _rows and
    Dataset.indices call made since the last clear()."""
    calls = []
    split_rows, rows, indices = mod._split_rows, mod._rows, mod.Dataset.indices

    def counted_split_rows(spec, dataset, split):
        calls.append(("_split_rows", split))
        return split_rows(spec, dataset, split)

    def counted_rows(spec, dataset, idx, who):
        calls.append(("_rows", who))
        return rows(spec, dataset, idx, who)

    def counted_indices(self, split):
        calls.append(("indices", split))
        return indices(self, split)

    monkeypatch.setattr(mod, "_split_rows", counted_split_rows)
    monkeypatch.setattr(mod, "_rows", counted_rows)
    monkeypatch.setattr(mod.Dataset, "indices", counted_indices)
    return calls


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_an_estimator_call_gathers_the_train_split_once(trained, checks, estimator):
    ds, sam, params, traj = trained
    q = np.ones((2, SPEC.param_count))
    args = (estimator, SPEC, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(order=400))
    checks.clear()
    influence.influence_scores(*args, np.arange(24), traj, "sgd", q)
    assert checks == ONE_TRAIN_GATHER
    checks.clear()
    influence.influence_vectors(*args, [0, [1, 2], []], traj, "sgd")
    assert checks == ONE_TRAIN_GATHER


def test_sam_gif_gathers_the_train_split_once(trained, checks):
    ds, _, _, traj = trained
    checks.clear()
    influence.sam_gif(traj, SPEC, ds, 3)
    assert checks == ONE_TRAIN_GATHER


def test_train_sam_scans_the_train_split_once(trained, checks):
    ds, sam, _, _ = trained
    checks.clear()
    train_sam(SPEC, ds, sam)
    assert checks == ONE_TRAIN_GATHER


def test_a_retrain_sweep_scans_the_train_split_once(monkeypatch, trained, checks):
    ds, sam, _, _ = trained
    monkeypatch.setattr(oracle, "_workers", lambda: 1)  # every retrain in this process
    checks.clear()
    oracle.loo_retrain_many(SPEC, ds, [[], 0, [1, 2]], sam)
    assert checks == ONE_TRAIN_GATHER


@pytest.mark.parametrize("estimator", ["if_fast", "gif"])
def test_calibrate_checks_the_val_split_once(monkeypatch, trained, checks, estimator):
    ds, sam, _, _ = trained
    monkeypatch.setattr(oracle, "_workers", lambda: 1)  # every retrain in this process
    checks.clear()
    oracle.calibrate_estimator(SPEC, ds, sam, estimator, 4, NeumannConfig(order=400))
    assert [c for c in checks if c[1] == "val"] == [("_split_rows", "val"), ("indices", "val")]
    assert not [c for c in checks if c[0] == "_rows"]
    # One train check per public entry point: calibrate_estimator itself,
    # whose checked rows its retrain sweep takes (for all of its blocks),
    # and influence_scores.
    assert checks.count(("_split_rows", "train")) == 2
