"""gmres_solve: the GMRES solve behind the Hessian estimators' commands.

It must match a dense solve on symmetric positive definite, symmetric
indefinite and non-symmetric operators, fail loudly at its iteration cap
or on a non-finite value, and give every row of a block exactly what the
row's own solve gives. The commands' solves must reach a dense reference
on a nonconvex MLP, and an unmet cap must reach the CLI as exit 3."""

import numpy as np
import pytest

from samattr import influence
from samattr import model as mod
from samattr.cli import main
from samattr.errors import DivergenceError
from samattr.experiments import load_config, setup
from samattr.influence import KRYLOV_RTOL, eps_jacobian_vec, gmres_solve, perturbed_params
from samattr.oracle import dense_hessian
from samattr.report import parse_report
from samattr.samtrain import train_sam

P = 12


def _rowwise(A):
    """x -> A x for one vector or for each row of a block, every row as its
    own product, so block and vector calls do the same arithmetic."""
    return lambda x: (x[..., None, :] @ A.T)[..., 0, :]


def _operator(kind, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((P, P))
    if kind == "spd":
        return M @ M.T / P + 0.2 * np.eye(P)
    if kind == "indefinite":
        Q, _ = np.linalg.qr(M)
        return Q @ np.diag(np.linspace(-3.0, 2.0, P) + 0.05) @ Q.T
    return M + 0.5 * np.eye(P)  # non-symmetric


@pytest.mark.parametrize("kind", ["spd", "indefinite", "nonsymmetric"])
@pytest.mark.parametrize("damp", [0.0, 0.3])
def test_matches_dense_solve(kind, damp):
    A = _operator(kind, 1)
    assert kind != "indefinite" or np.linalg.eigvalsh(A + damp * np.eye(P))[0] < 0.0
    assert (kind == "nonsymmetric") != np.allclose(A, A.T)
    rng = np.random.default_rng(2)
    for b in rng.standard_normal((3, P)):
        ref = np.linalg.solve(A + damp * np.eye(P), b)
        x = gmres_solve(_rowwise(A), b, damp, 100)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
        assert np.linalg.norm(A @ x + damp * x - b) <= KRYLOV_RTOL * np.linalg.norm(b)


def test_cap_raises_with_iterations_and_residual():
    A = _operator("spd", 3)
    b = np.random.default_rng(4).standard_normal(P)
    with pytest.raises(DivergenceError, match=r"in 3 iterations: relative residual \d"):
        gmres_solve(_rowwise(A), b, 0.01, 3)
    with pytest.raises(DivergenceError, match="in 3 iterations"):
        gmres_solve(_rowwise(A), np.stack([b, b]), 0.01, 3)


def test_non_finite_operator_output_raises():
    A = _operator("spd", 5)
    calls = [0]

    def blows_up(x):
        calls[0] += 1
        return _rowwise(A)(x) * (np.inf if calls[0] == 2 else 1.0)

    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="non-finite"):
        gmres_solve(blows_up, np.ones(P), 0.0, 100)
    assert calls[0] == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_right_hand_side_raises(bad):
    def apply_A(x):
        raise AssertionError("the operator was applied")

    rhs = np.ones((3, P))
    rhs[1, 2] = bad
    with pytest.raises(DivergenceError, match="^GMRES right-hand side is not finite$"):
        gmres_solve(apply_A, rhs, 0.0, 100)


def test_singular_operator_raises():
    # The zero operator ends the Krylov space at iteration 1 with no
    # solution in it; a singular operator that does not end it exactly
    # stalls and raises at the cap.
    with pytest.raises(DivergenceError, match="broke down at iteration 1"):
        gmres_solve(lambda x: 0.0 * x, np.ones(P), 0.0, 100)
    with pytest.raises(DivergenceError, match="in 100 iterations: relative residual 7.07"):
        gmres_solve(_rowwise(np.diag([1.0, 0.0])), np.array([1.0, 1.0]), 0.0, 100)


def test_block_rows_equal_one_row_solves():
    # A has four distinct eigenvalues, so a right-hand side on k of its
    # eigenvectors is solved exactly in k iterations: the rows retire at
    # different iterations, and the zero row never runs.
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((P, P)))
    A = Q @ np.diag(np.repeat([0.5, 1.0, 2.0, 4.0], 3)) @ Q.T
    eig = Q.T.reshape(4, 3, P)[:, 0]  # one eigenvector per eigenvalue
    coef = np.array([[1, 0, 0, 0], [3, -1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 2, 0, 5e-3]])
    B = coef @ eig
    seen = []

    def apply_A(x):
        seen.append(1 if x.ndim == 1 else x.shape[0])
        return _rowwise(A)(x)

    block = gmres_solve(apply_A, B, 0.1, 50)
    block_calls = list(seen)
    rows, calls = [], []
    for b in B:
        seen.clear()
        rows.append(gmres_solve(apply_A, b, 0.1, 50))
        calls.append(len(seen))
    assert np.array_equal(block, np.stack(rows))
    # k eigenvector components: k iterations, then one call to check x.
    assert calls == [2, 3, 0, 5, 3] and np.all(block[2] == 0.0)
    # The block's calls carry only the rows still running or being checked.
    assert sum(block_calls) == sum(calls) and block_calls[0] == 4
    np.testing.assert_allclose(block, np.linalg.solve(A + 0.1 * np.eye(P), B.T).T, rtol=1e-9)


def test_basis_grows_as_used():
    # An iteration cap far beyond memory: the basis is not allocated to it.
    A = _operator("spd", 7)
    b = np.random.default_rng(8).standard_normal(P)
    x = gmres_solve(_rowwise(A), b, 0.0, 10**12)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-9)


MLP_CONFIG = dict(
    dataset="blobs(80, 10, 3, 3.0, 1)",
    model="mlp",
    hidden=16,
    activation="tanh",
    eta=0.1,
    batch_size=16,
    steps=300,
    seed=1,
)


def _write(tmp_path, **kw):
    conf = dict(MLP_CONFIG, out=str(tmp_path / "out"), **kw)
    path = tmp_path / "exp.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in conf.items()))
    return str(path)


def _dense_scores(path, estimator):
    """score_k = g_k . (A + damp I)^-T g_val with A built densely."""
    cfg = load_config(path)
    spec, ds, sam = setup(cfg)
    params, _ = train_sam(spec, ds, sam)
    rows = ds.indices("train")
    w_pert, _ = perturbed_params(spec, ds, params, sam.rho, sam.p)
    H = dense_hessian(spec, w_pert, ds, lam=0.0)
    A = H + (sam.lam + cfg.neumann().damp) * np.eye(spec.param_count)
    if estimator == "hif":
        J = np.column_stack([eps_jacobian_vec(spec, ds, params, sam.rho, sam.p, e)
                             for e in np.eye(spec.param_count)])
        A = A + H @ J
    G = mod.example_grads(spec, w_pert, ds, rows) / rows.size
    _, g_val = mod.subset_loss_grad(spec, params, ds, ds.indices("val"), 1.0)
    return G @ np.linalg.solve(A.T, g_val)


@pytest.mark.parametrize("estimator", ["if_fast", "hif"])
def test_mlp_attribute_matches_dense_solve(tmp_path, capsys, estimator):
    # The (10, 16, 3) tanh MLP's perturbed Hessian is indefinite.
    path = _write(tmp_path, estimator=estimator)
    assert main(["attribute", "--config", path]) == 0
    report = next(p for p in capsys.readouterr().out.splitlines() if p.endswith(".report"))
    runs = {run.metric: run for run in parse_report(report).runs}
    scores = np.array(runs[f"influence_score_{estimator}"].y)
    ref = _dense_scores(path, estimator)
    assert np.abs(scores - ref).max() <= 1e-6 * np.abs(ref).max()


def test_cli_exit_3_at_the_cap(tmp_path, capsys):
    assert main(["attribute", "--config", _write(tmp_path, neumann_order=5)]) == 3
    assert "in 5 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["neumann_alpha", "neumann_zeta"])
def test_neumann_step_keys_are_unknown(tmp_path, key):
    assert main(["train", "--config", _write(tmp_path, **{key: 0.1})]) == 2


def test_command_path_makes_no_power_iteration(tmp_path, monkeypatch):
    def no_alpha(*args, **kwargs):
        raise AssertionError("_auto_alpha ran on the command path")

    monkeypatch.setattr(influence, "_auto_alpha", no_alpha)
    path = _write(tmp_path, estimator="hif", dataset="blobs(24, 4, 2, 2.5, 3)", steps=20)
    assert main(["attribute", "--config", path]) == 0
