"""score_all builds one linearization for every point; the per-point
entry points build their own. Both must give the same vectors."""

import numpy as np
import pytest

from samattr import influence
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.experiments import ExperimentConfig, score_all
from samattr.influence import (
    NeumannConfig,
    compute_influence,
    sam_gif,
    sam_hif,
    sam_if_fast,
)
from samattr.model import ModelSpec
from samattr.samtrain import SAMConfig, train_sam


@pytest.fixture(scope="module")
def trained():
    ds = make_blobs(24, 3, 2, 2.0, seed=21)
    spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
    sam = SAMConfig(rho=0.05, lam=0.1, eta=0.5, batch_size=8, steps=40, seed=21)
    params, traj = train_sam(spec, ds, sam)
    return spec, ds, sam, params, traj


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_score_all_matches_per_point_estimators(trained, estimator):
    spec, ds, sam, params, traj = trained
    cfg = ExperimentConfig(estimator=estimator, neumann_order=400)
    ncfg = cfg.neumann()
    _, ifvecs = score_all(cfg, spec, ds, sam, params, traj)

    def per_point(k):
        if estimator == "gif":
            return sam_gif(traj, spec, ds, k, cfg.gif_mode)
        fn = sam_if_fast if estimator == "if_fast" else sam_hif
        return fn(spec, ds, params, sam.rho, sam.p, sam.lam, k, ncfg)

    n = ds.indices("train").size
    assert np.array_equal(ifvecs, np.stack([per_point(k) for k in range(n)]))
    for k in (0, n // 2, n - 1):
        ifvec, _ = compute_influence(estimator, spec, ds, params, sam.rho, sam.p, sam.lam, k, ncfg,
                                     trajectory=traj, gif_mode=cfg.gif_mode)
        assert np.array_equal(ifvec, ifvecs[k])


@pytest.mark.parametrize("estimator", ["if_fast", "hif"])
def test_solve_runs_each_primal_pass_once(monkeypatch, estimator):
    # The curvature operators are built once per linearization point, so the
    # forward passes a scoring call makes do not grow with GMRES iterations.
    ds = make_blobs(30, 3, 3, 1.0, seed=5)
    spec = ModelSpec(kind="mlp", layer_sizes=(3, 5, 3))
    sam = SAMConfig(rho=0.05, lam=0.01, eta=0.5, batch_size=10, steps=30, seed=5)
    params, _ = train_sam(spec, ds, sam)
    _, q = mod.subset_loss_grad(spec, params, ds, ds.indices("val"))
    forwards, applications = [], []
    forward, solve = mod._forward, influence.gmres_solve

    def counted_forward(*args):
        forwards.append(1)
        return forward(*args)

    def counted_solve(apply_A, rhs, damp, order):
        def counted(v):
            applications.append(1)
            return apply_A(v)

        return solve(counted, rhs, damp, order)

    monkeypatch.setattr(mod, "_forward", counted_forward)
    monkeypatch.setattr(influence, "gmres_solve", counted_solve)
    n = ds.indices("train").size
    scores = influence.influence_scores(
        estimator, spec, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(order=400),
        np.arange(n), None, "sgd", q[None],
    )
    assert scores.shape == (n, 1) and np.all(np.isfinite(scores))
    assert len(applications) >= 10
    # One operator per linearization point, H at params (whose primal pass
    # also gives the full-train gradient) and H_pert, and the points' gradients.
    assert len(forwards) == 3
