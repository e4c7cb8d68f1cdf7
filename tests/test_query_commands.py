"""The CLI commands score per query: attribute's scores are score_all's,
trace ranks against each misclassified test point, attribute makes one
one-row solve, and edit rejects bad indices, and valuate, detect-noise and
edit a removal fraction that removes every point, before any training."""

import numpy as np
import pytest

from samattr import experiments, influence
from samattr import model as mod
from samattr.cli import main
from samattr.errors import ConfigError, InvalidInputError
from samattr.experiments import load_config, rank_ascending, rank_descending, score_all, setup
from samattr.report import parse_report
from samattr.samtrain import train_sam

# The trace command of the acceptance suite's CLI determinism test.
BASE = dict(
    dataset="blobs(24, 4, 2, 2.5, 3)",
    lam=0.2,
    eta=0.5,
    steps=80,
    batch_size=0,
    seed=3,
    neumann_order=2000,
    sample_size=6,
)


def _config(tmp_path, **extra):
    conf = dict(BASE, out=str(tmp_path / "out"), **extra)
    path = tmp_path / "exp.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in conf.items()))
    return str(path)


def _run(command, path, capsys):
    assert main([command, "--config", path]) == 0
    report = next(p for p in capsys.readouterr().out.splitlines() if p.endswith(".report"))
    return {run.metric: run for run in parse_report(report).runs}


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_attribute_scores_are_score_all_scores(tmp_path, capsys, estimator):
    path = _config(tmp_path, estimator=estimator)
    runs = _run("attribute", path, capsys)
    cfg = load_config(path)
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    scores, _ = score_all(cfg, spec, ds, sam, params, traj)
    assert np.array_equal(np.array(runs[f"influence_score_{estimator}"].y), scores)


def _same_ranking(got, ref, order):
    """got lists the same points as order, except where two points' reference
    scores differ by less than 1e-8 of the largest."""
    tol = 1e-8 * np.abs(ref).max()
    return all(a == b or abs(ref[a] - ref[b]) < tol for a, b in zip(got, order))


def test_trace_ranks_against_each_test_point(tmp_path, capsys):
    path = _config(tmp_path, dataset="blobs(24, 4, 2, 1.0, 3)", max_trace_points=3)
    runs = _run("trace", path, capsys)
    cfg = load_config(path)
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    _, ifvecs = score_all(cfg, spec, ds, sam, params, traj)
    traced = [int(name[len("helpful_test"):]) for name in runs if name.startswith("helpful_test")]
    # Every misclassified test point is counted; the first max_trace_points are traced.
    mis = [int(r) for r in ds.indices("test")
           if mod.predict(spec, params, ds.features[r])[0] != ds.labels[r]]
    assert runs["misclassified_count"].y[0] == len(mis) > cfg.max_trace_points == 3
    assert traced == mis[:3]
    m = min(cfg.top_m, ifvecs.shape[0])
    for row in traced:
        _, g_test = mod.subset_loss_grad(spec, params, ds, [row], 1.0)
        ref = -(ifvecs @ g_test)
        for kind, rank in (("helpful", rank_descending), ("harmful", rank_ascending)):
            run = runs[f"{kind}_test{row}"]
            got = [int(x) for x in run.x]
            assert len(got) == m and _same_ranking(got, ref, rank(ref)[:m])
            np.testing.assert_allclose(run.y, ref[got], rtol=0, atol=1e-8 * np.abs(ref).max())


def test_attribute_makes_one_one_row_solve(tmp_path, monkeypatch):
    calls = []
    solve = influence.gmres_solve

    def recording(apply_A, rhs, damp, order):
        calls.append(np.shape(rhs))
        return solve(apply_A, rhs, damp, order)

    monkeypatch.setattr(influence, "gmres_solve", recording)
    for estimator in ("if_fast", "hif"):
        calls.clear()
        cfg = load_config(_config(tmp_path, estimator=estimator))
        experiments.cmd_attribute(cfg)
        assert calls == [(1, mod.ModelSpec("logistic", (4, 2)).param_count)]


@pytest.mark.parametrize("indices", [(2, 2), (0, 999), (-1,)])
def test_edit_checks_indices_before_training(tmp_path, monkeypatch, indices):
    def no_training(*args, **kwargs):
        raise AssertionError("train_sam ran before edit_indices were checked")

    monkeypatch.setattr(experiments, "train_sam", no_training)
    cfg = load_config(_config(tmp_path), {"edit_indices": indices})
    with pytest.raises(ConfigError, match="edit_indices"):
        experiments.cmd_edit(cfg)


def test_edit_rejects_removing_every_training_point_before_training(tmp_path, monkeypatch):
    # A retrain without any training point is undefined; without this check
    # edit trains and scores first, then fails in the retrain.
    def no_training(*args, **kwargs):
        raise AssertionError("train_sam ran before edit_indices were checked")

    path = _config(tmp_path)
    n = setup(load_config(path))[1].indices("train").size
    monkeypatch.setattr(experiments, "train_sam", no_training)
    cfg = load_config(path, {"edit_indices": tuple(range(n))})
    with pytest.raises(ConfigError, match="edit_indices"):
        experiments.cmd_edit(cfg)


@pytest.mark.parametrize("command,extra", [
    ("valuate", {"removal_fractions": "0.1,0.99"}),
    ("detect_noise", {"removal_fractions": "0.1,0.99", "flip_fraction": 0.1}),
    ("edit", {"removal_fractions": "0.99"}),
], ids=["valuate", "detect-noise", "edit"])
def test_fraction_removing_every_point_is_refused_before_training(tmp_path, monkeypatch,
                                                                   command, extra):
    # 0.99 of the 16-odd train points rounds to all of them: the retrain
    # sweep would refuse that set, so the command refuses it up front.
    def no_training(*args, **kwargs):
        raise AssertionError("train_sam ran before removal_fractions were checked")

    monkeypatch.setattr(experiments, "train_sam", no_training)
    cfg = load_config(_config(tmp_path, **extra))
    with pytest.raises(InvalidInputError, match="loo_retrain_many: removing all .* leaves none"):
        getattr(experiments, f"cmd_{command}")(cfg)
