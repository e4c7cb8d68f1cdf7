"""One SAM point at the trained weights. model.hvp_operator's primal pass
also gives the full-train gradient; samtrain._sam_point turns it into the
worst-case perturbation and keeps the operator, and perturbed_params,
eps_jacobian_vec, stationarity_report and the Hessian estimators all read
them from there. Each split's rows are checked by model._split_rows.

The reference formulas below are the two-pass ones: the gradient from
subset_loss_grad and, where a curvature is needed, a second operator."""

import numpy as np
import pytest

from samattr import influence, oracle
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.influence import (
    NeumannConfig,
    eps_jacobian_vec,
    influence_scores,
    influence_vectors,
    perturbed_params,
    sam_gif,
)
from samattr.model import Dataset, ModelSpec
from samattr.numcore import p_norm
from samattr.samtrain import SAMConfig, stationarity_report, train_sam, worst_perturbation

SPEC = ModelSpec(kind="mlp", layer_sizes=(3, 5, 3))

# The benchmark's three model shapes, a relu MLP and a 10-class MLP, each
# with make_blobs arguments (n, d, C, sep, seed).
SHAPES = {
    "logistic": (ModelSpec("logistic", (10, 2)), (100, 10, 2, 3.0, 1)),
    "mlp-20-32-4": (ModelSpec("mlp", (20, 32, 4)), (400, 20, 4, 3.0, 7)),
    "mlp-10-16-3": (ModelSpec("mlp", (10, 16, 3)), (80, 10, 3, 3.0, 7)),
    "relu": (ModelSpec("mlp", (8, 12, 3), "relu"), (120, 8, 3, 2.0, 2)),
    "ten-class": (ModelSpec("mlp", (12, 16, 10)), (300, 12, 10, 3.0, 3)),
}


@pytest.fixture
def forwards(monkeypatch):
    """The forward passes (model._Kernel.forward calls) made since the last clear()."""
    calls = []
    forward = mod._Kernel.forward

    def counted(kernel):
        calls.append(1)
        return forward(kernel)

    monkeypatch.setattr(mod._Kernel, "forward", counted)
    return calls


def _trained(p: float):
    ds = make_blobs(30, 3, 3, 1.0, seed=5)
    sam = SAMConfig(rho=0.05, p=p, lam=0.01, eta=0.5, batch_size=10, steps=30, seed=5)
    params, traj = train_sam(SPEC, ds, sam)
    return ds, sam, params, traj


def _two_pass_grad(spec, ds, params):
    rows = ds.indices("train")
    return mod.subset_loss_grad(spec, params, ds, rows, 1.0 / rows.size)[1]


def _two_pass_operator(spec, ds, params):
    X, y = mod._split_rows(spec, ds, "train")
    return mod.hvp_operator(spec, params, X, y, 1.0 / y.size)[1]


def _two_pass_linearize(spec, X, y, params, rho, p, lam, total):
    dataset = Dataset(X, y)  # the train rows, every one tagged "train"
    g = _two_pass_grad(spec, dataset, params)
    w_pert = params + worst_perturbation(g, rho, p)
    apply_Hpert = _two_pass_operator(spec, dataset, w_pert)
    if total and rho > 0.0:
        apply_H = _two_pass_operator(spec, dataset, params)
        apply_D = influence._eps_grad_jacobian(g, rho, p)

        def apply_A(v):
            return apply_Hpert(v + apply_D(apply_H(v))) + lam * v

        def apply_AT(u):
            h = apply_Hpert(u)
            return h + apply_H(apply_D(h)) + lam * u
    else:
        def apply_A(v):
            return apply_Hpert(v) + lam * v

        apply_AT = apply_A
    return w_pert, apply_A, apply_AT


@pytest.mark.parametrize("shape", SHAPES)
def test_operator_gradient_is_subset_loss_grad(shape):
    spec, blobs = SHAPES[shape]
    ds = make_blobs(*blobs[:4], seed=blobs[4])
    train = ds.indices("train")
    cases = [(0, train, 1.0 / train.size), (1, train[::3], 0.3), (2, train[:1], 1.0)]
    for seed, rows, scale in cases:
        params = (1.0 + seed) * mod.init_params(spec, seed)
        g, _ = mod.hvp_operator(spec, params, *mod._rows(spec, ds, rows, "hvp"), scale)
        expected = mod.subset_loss_grad(spec, params, ds, rows, scale)[1]
        assert g.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_views_equal_the_two_pass_formulas(p):
    ds, sam, params, _ = _trained(p)
    g = _two_pass_grad(SPEC, ds, params)
    eps = worst_perturbation(g, sam.rho, p)
    w_pert, eps_out = perturbed_params(SPEC, ds, params, sam.rho, p)
    assert eps_out.tobytes() == eps.tobytes()
    assert w_pert.tobytes() == (params + eps).tobytes()

    V = np.random.default_rng(6).standard_normal((4, SPEC.param_count))
    expected = influence._eps_grad_jacobian(g, sam.rho, p)(_two_pass_operator(SPEC, ds, params)(V))
    assert eps_jacobian_vec(SPEC, ds, params, sam.rho, p, V).tobytes() == expected.tobytes()
    assert eps_jacobian_vec(SPEC, ds, params, sam.rho, p, V[0]).tobytes() == expected[0].tobytes()

    rows = ds.indices("train")
    g_pert = mod.subset_loss_grad(SPEC, params + eps, ds, rows, 1.0 / rows.size)[1]
    assert stationarity_report(SPEC, ds, params, sam) == {
        "grad_norm": p_norm(g_pert, 2.0),
        "grad_plus_l2_norm": p_norm(g_pert + sam.lam * params, 2.0),
    }


@pytest.mark.parametrize("call,passes", [
    ("perturbed_params", 1), ("eps_jacobian_vec", 1), ("stationarity_report", 2),
])
def test_forward_passes_per_call(forwards, call, passes):
    ds, sam, params, _ = _trained(2.0)
    v = np.ones(SPEC.param_count)
    run = {
        "perturbed_params": lambda: perturbed_params(SPEC, ds, params, sam.rho, sam.p),
        "eps_jacobian_vec": lambda: eps_jacobian_vec(SPEC, ds, params, sam.rho, sam.p, v),
        "stationarity_report": lambda: stationarity_report(SPEC, ds, params, sam),
    }[call]
    forwards.clear()
    run()
    assert len(forwards) == passes


@pytest.mark.parametrize("estimator", ["if_fast", "hif"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_estimators_equal_the_two_pass_linearization(monkeypatch, estimator, p):
    ds, sam, params, _ = _trained(p)
    _, q = mod.subset_loss_grad(SPEC, params, ds, ds.indices("val"))
    n = ds.indices("train").size
    args = (estimator, SPEC, ds, params, sam.rho, p, sam.lam, NeumannConfig(order=400))
    scores = influence_scores(*args, np.arange(n), None, "sgd", q[None])
    vectors = influence_vectors(*args, [0, [1, 2]], None, "sgd")
    monkeypatch.setattr(influence, "_linearize", _two_pass_linearize)
    assert scores.tobytes() == influence_scores(*args, np.arange(n), None, "sgd", q[None]).tobytes()
    assert vectors.tobytes() == influence_vectors(*args, [0, [1, 2]], None, "sgd").tobytes()


def test_empty_split_is_named(monkeypatch):
    ds, sam, params, traj = _trained(2.0)
    no_train = Dataset(ds.features, ds.labels, np.where(ds.split == "train", "test", ds.split))
    no_val = Dataset(ds.features, ds.labels, np.where(ds.split == "val", "test", ds.split))
    q = np.zeros((1, SPEC.param_count))
    for estimator in ("if_fast", "hif", "gif"):
        with pytest.raises(InvalidInputError, match="^dataset has no train split rows$"):
            influence_scores(estimator, SPEC, no_train, params, sam.rho, sam.p, sam.lam,
                             NeumannConfig(), [0], traj, "sgd", q)
    with pytest.raises(InvalidInputError, match="^dataset has no train split rows$"):
        sam_gif(traj, SPEC, no_train, 0)

    def no_sweep(*args):
        raise AssertionError("calibrate retrained before checking its splits")

    monkeypatch.setattr(oracle, "loo_retrain_many", no_sweep)
    for dataset, split in ((no_train, "train"), (no_val, "val")):
        with pytest.raises(InvalidInputError, match=f"^dataset has no {split} split rows$"):
            oracle.calibrate_estimator(SPEC, dataset, sam, "if_fast", 1)


def test_calibrate_takes_every_validation_loss_from_one_stacked_pass(monkeypatch):
    ds, sam, params, _ = _trained(2.0)
    calls = []
    stacked = mod._evaluate

    def recorded(spec, W, X, y):
        losses, accs = stacked(spec, W, X, y)
        calls.append((W.copy(), losses))
        return losses, accs

    monkeypatch.setattr(mod, "_evaluate", recorded)
    oracle.calibrate_estimator(SPEC, ds, sam, "if_fast", 4)
    [(W, losses)] = calls
    assert W.shape == (5, SPEC.param_count) and W[0].tobytes() == params.tobytes()
    assert losses[0] == oracle.validation_loss(SPEC, params, ds)
