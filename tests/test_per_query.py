"""Per-query scoring: the transposed SAM influence operator, the closed-form
perturbation Jacobian, and influence_scores against the per-point vectors
and a dense solve."""

import numpy as np
import pytest

from samattr import influence
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.influence import (
    NeumannConfig,
    eps_jacobian_vec,
    influence_scores,
    influence_vectors,
    perturbed_params,
    sam_hif,
)
from samattr.model import ModelSpec
from samattr.oracle import dense_hessian
from samattr.samtrain import SAMConfig, train_sam, worst_perturbation

SPEC = ModelSpec(kind="logistic", layer_sizes=(4, 3))


def _trained(p: float, batch_size: int = 60, steps: int = 200):
    ds = make_blobs(60, 4, 3, 2.0, seed=31)
    sam = SAMConfig(rho=0.1, p=p, lam=0.05, eta=0.5, batch_size=batch_size, steps=steps, seed=31)
    params, traj = train_sam(SPEC, ds, sam)
    return ds, sam, params, traj


@pytest.mark.parametrize("estimator,p", [("if_fast", 2.0), ("hif", 2.0), ("hif", 3.0)])
def test_transposed_operator_is_the_adjoint(estimator, p):
    ds, sam, params, _ = _trained(p)
    X, y = mod._split_rows(SPEC, ds, "train")
    _, apply_A, apply_AT = influence._linearize(
        SPEC, X, y, params, sam.rho, p, sam.lam, estimator == "hif"
    )
    if estimator == "if_fast":
        assert apply_AT is apply_A
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = rng.standard_normal((2, SPEC.param_count))
        lhs, rhs = u @ apply_A(v), apply_AT(u) @ v
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    # A block of rows gives, row for row, what the one-vector calls give.
    U = rng.standard_normal((4, SPEC.param_count))
    assert np.array_equal(apply_AT(U), np.stack([apply_AT(u) for u in U]))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_closed_form_jacobian_matches_central_difference(p):
    ds, sam, params, _ = _trained(p)
    rows = ds.indices("train")
    scale = 1.0 / rows.size
    v = np.random.default_rng(8).standard_normal(SPEC.param_count)
    jv = eps_jacobian_vec(SPEC, ds, params, sam.rho, p, v)
    h = 1e-6
    _, gp = mod.subset_loss_grad(SPEC, params + h * v, ds, rows, scale)
    _, gm = mod.subset_loss_grad(SPEC, params - h * v, ds, rows, scale)
    jv_fd = (worst_perturbation(gp, sam.rho, p) - worst_perturbation(gm, sam.rho, p)) / (2.0 * h)
    assert np.abs(jv - jv_fd).max() < 1e-5 * np.abs(jv).max()


def test_zero_gradient_entry_is_singular_above_p2():
    # A feature that is zero everywhere gives its weights an exactly zero
    # gradient entry, where |g|^(q-2) blows up for p > 2.
    ds = make_blobs(30, 3, 2, 2.0, seed=32)
    ds = mod.Dataset(ds.features * np.array([1.0, 0.0, 1.0]), ds.labels, ds.split)
    spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
    sam = SAMConfig(rho=0.05, p=3.0, lam=0.05, eta=0.5, batch_size=30, steps=50, seed=32)
    params, _ = train_sam(spec, ds, sam)
    v = np.ones(spec.param_count)
    with pytest.raises(InvalidInputError):
        eps_jacobian_vec(spec, ds, params, sam.rho, 3.0, v)
    with pytest.raises(InvalidInputError):
        sam_hif(spec, ds, params, sam.rho, 3.0, sam.lam, 0, NeumannConfig(order=50))
    for p in (1.5, 2.0):  # q >= 2: the zero entry is harmless
        assert np.all(np.isfinite(eps_jacobian_vec(spec, ds, params, sam.rho, p, v)))


@pytest.fixture(scope="module")
def suite():
    """The acceptance suite's logistic problem."""
    ds = make_blobs(200, 10, 2, 3.0, seed=1)
    spec = ModelSpec(kind="logistic", layer_sizes=(10, 2))
    sam = SAMConfig(rho=0.05, p=2.0, lam=1.0, eta=0.5, batch_size=200, steps=60, seed=1)
    params, traj = train_sam(spec, ds, sam)
    _, gval = mod.subset_loss_grad(spec, params, ds, ds.indices("val"), 1.0)
    return spec, ds, sam, params, traj, gval


@pytest.mark.parametrize("estimator", ["if_fast", "hif"])
def test_scores_match_vectors_and_dense_solve(suite, estimator):
    spec, ds, sam, params, traj, gval = suite
    ncfg = NeumannConfig(order=2000, zeta=1e-11)
    n = ds.indices("train").size
    args = (estimator, spec, ds, params, sam.rho, sam.p, sam.lam, ncfg, range(n), traj, "sgd")
    scores = influence_scores(*args, gval[None])
    assert scores.shape == (n, 1)
    scores = scores[:, 0]
    per_point = -(influence_vectors(*args) @ gval)

    rows = ds.indices("train")
    w_pert, _ = perturbed_params(spec, ds, params, sam.rho, sam.p)
    H = dense_hessian(spec, w_pert, ds, 0.0, rows, 1.0 / rows.size)
    P = spec.param_count
    A = H + (sam.lam + ncfg.damp) * np.eye(P)
    if estimator == "hif":
        J = np.column_stack([eps_jacobian_vec(spec, ds, params, sam.rho, sam.p, e) for e in np.eye(P)])
        A = A + H @ J
    G = mod.example_grads(spec, w_pert, ds, rows) / rows.size
    dense = G @ np.linalg.solve(A.T, gval)

    top = np.abs(per_point).max()
    assert np.abs(scores - per_point).max() <= 1e-8 * top
    assert np.abs(scores - dense).max() <= np.abs(per_point - dense).max()


@pytest.mark.parametrize("mode", ["sgd", "gd"])
def test_gif_scores_are_vector_dot_products(mode):
    ds, sam, params, traj = _trained(2.0, batch_size=8, steps=40)
    queries = np.random.default_rng(4).standard_normal((3, SPEC.param_count))
    ks = [0, 5, 17, 40]
    args = ("gif", SPEC, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(), ks, traj, mode)
    scores = influence_scores(*args, queries)
    expected = -(influence_vectors(*args) @ queries.T)
    assert scores.shape == (len(ks), 3)
    assert np.abs(scores - expected).max() <= 1e-12 * np.abs(expected).max()


def test_queries_must_match_the_parameter_count(suite):
    spec, ds, sam, params, traj, gval = suite
    with pytest.raises(InvalidInputError):
        influence_scores("if_fast", spec, ds, params, sam.rho, sam.p, sam.lam, NeumannConfig(),
                         [0], traj, "sgd", np.ones((1, spec.param_count + 1)))
