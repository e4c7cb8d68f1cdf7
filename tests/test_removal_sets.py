"""The estimators take removal sets, as loo_retrain_many does: row r is the
sum of IF(k) over the r-th set, from one solve per set for the Hessian
estimators and one replay for gif. One-point sets keep the per-point
arithmetic, the empty set gives a zero row, and a set the oracle refuses
is refused with the oracle's error."""

import numpy as np
import pytest

from samattr import experiments, influence
from samattr import model as mod
from samattr.errors import InvalidInputError
from samattr.experiments import ExperimentConfig, setup
from samattr.influence import influence_scores, influence_vectors
from samattr.oracle import loo_retrain_many
from samattr.samtrain import train_sam

# The fullbatch-logistic benchmark problem and a small tanh MLP trained
# by minibatch SAM.
CONFIGS = {
    "logistic": dict(dataset="blobs(100, 10, 2, 3.0, 1)", model="logistic", batch_size=0,
                     steps=60, seed=1),
    "tanh-mlp": dict(dataset="blobs(40, 4, 3, 1.0, 2)", model="mlp", activation="tanh",
                     hidden=(6,), batch_size=8, steps=60, eta="0.3", seed=2),
}
TOLERANCE = {"if_fast": 1e-8, "hif": 1e-8, "gif": 1e-12}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def trained(request):
    cfg = ExperimentConfig(**CONFIGS[request.param])
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    return cfg, spec, ds, sam, params, traj


def _call(fn, estimator, trained, ks, *queries):
    cfg, spec, ds, sam, params, traj = trained
    return fn(estimator, spec, ds, params, sam.rho, sam.p, sam.lam, cfg.neumann(), ks, traj,
              "sgd", *queries)


def _sets(n: int) -> list:
    # Nested prefixes as valuate removes them, a scattered set, a
    # one-element collection and the empty set.
    order = np.random.default_rng(4).permutation(n)
    return [order[:2], order[:5], order[:9], [n - 1, 0, 7], [3], []]


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_set_rows_are_sums_of_point_rows(trained, estimator):
    ds = trained[2]
    n = ds.indices("train").size
    sets = _sets(n)
    points = np.arange(n)
    per_point = _call(influence_vectors, estimator, trained, points)
    got = _call(influence_vectors, estimator, trained, sets)
    assert got.shape == (len(sets), per_point.shape[1])
    for row, S in zip(got, sets):
        want = per_point[np.asarray(S, dtype=np.int64)].sum(axis=0)
        assert np.linalg.norm(row - want) <= TOLERANCE[estimator] * np.linalg.norm(want)
    # Scores are the set vectors' dot products with the queries.
    queries = np.random.default_rng(5).standard_normal((2, per_point.shape[1]))
    scores = _call(influence_scores, estimator, trained, sets, queries)
    want = -(got @ queries.T)
    assert np.abs(scores - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_one_point_sets_keep_the_per_point_rows(trained, estimator):
    cfg, spec, ds, sam, params, traj = trained
    ks = [5, 1, 5, 0]  # a point may be listed twice
    rows = ds.indices("train")
    X, y = mod._split_rows(spec, ds, "train")
    if estimator == "gif":
        # The rows of the distinct points, each repeated where ks repeats it.
        distinct = sorted(set(ks))
        rows_of = _call(influence_vectors, estimator, trained, distinct)
        want = rows_of[[distinct.index(k) for k in ks]]
    else:
        w_pert, apply_A, _ = influence._linearize(spec, X, y, params, sam.rho, sam.p, sam.lam,
                                                  estimator == "hif")
        grads = (1.0 / rows.size) * mod.example_grads(spec, w_pert, ds, rows[ks])
        want = -influence._block_solve(apply_A, grads, cfg.neumann())
    assert np.array_equal(_call(influence_vectors, estimator, trained, ks), want)
    assert np.array_equal(_call(influence_vectors, estimator, trained, np.array(ks)), want)
    # One-element collections are the same sets.
    assert np.array_equal(_call(influence_vectors, estimator, trained, [[k] for k in ks]), want)


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_empty_set_gives_a_zero_row(trained, estimator):
    P = trained[1].param_count
    got = _call(influence_vectors, estimator, trained, [[], [1, 2], []])
    assert not got[0].any() and not got[2].any() and got[1].any()
    assert np.array_equal(_call(influence_vectors, estimator, trained, [[]]), np.zeros((1, P)))


def _message(call) -> str:
    """The error's message without its leading caller name."""
    with pytest.raises(InvalidInputError) as info:
        call()
    who, _, rest = str(info.value).partition(": ")
    assert who in ("influence_vectors", "influence_scores", "loo_retrain_many")
    return rest


@pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
def test_estimators_refuse_what_the_oracle_refuses(trained, estimator):
    cfg, spec, ds, sam, params, traj = trained
    n = ds.indices("train").size
    query = np.zeros((1, spec.param_count))
    for bad in ([[1, 1]], [[0, n]], [-1], [n], [range(n)], [0, [2, 2]], [[0.0]]):
        oracle_msg = _message(lambda: loo_retrain_many(spec, ds, bad, sam))
        assert _message(lambda: _call(influence_vectors, estimator, trained, bad)) == oracle_msg
        assert _message(lambda: _call(influence_scores, estimator, trained, bad, query)) == oracle_msg


@pytest.mark.parametrize("estimator", ["if_fast", "hif"])
def test_valuate_solves_one_row_per_removal_fraction(tmp_path, monkeypatch, estimator):
    calls = []
    solve = influence.gmres_solve

    def recording(apply_A, rhs, damp, order):
        calls.append(np.shape(rhs))
        return solve(apply_A, rhs, damp, order)

    monkeypatch.setattr(influence, "gmres_solve", recording)
    cfg = ExperimentConfig(dataset="blobs(40, 4, 2, 2.5, 3)", lam=0.2, steps=80, seed=3,
                           estimator=estimator, removal_fractions=(0.1, 0.2, 0.3),
                           out=str(tmp_path))
    n = setup(cfg)[1].indices("train").size
    assert max(round(f * n) for f in cfg.removal_fractions) > 3
    experiments.cmd_valuate(cfg)
    P = setup(cfg)[0].param_count
    # One row for the validation-gradient scores, then one per removal set.
    assert calls == [(1, P), (3, P)]
