import numpy as np
import pytest

from samattr import influence, model as mod
from samattr.datasets import make_blobs
from samattr.errors import DivergenceError, InvalidInputError
from samattr.influence import (
    NeumannConfig,
    compute_influence,
    eps_jacobian_vec,
    influence_score,
    influence_scores,
    influence_vectors,
    neumann_ihvp,
    sam_gif,
    sam_hif,
    sam_if_fast,
)
from samattr.model import Dataset, ModelSpec
from samattr.oracle import dense_hessian
from samattr.samtrain import (
    SAMConfig,
    recorded_trajectory,
    train_sam,
    train_sam_many,
    worst_perturbation,
)


@pytest.fixture(scope="module")
def convex_setup():
    """A converged full-batch SAM run on a small logistic problem."""
    ds = make_blobs(40, 4, 2, 2.0, seed=11)
    spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
    cfg = SAMConfig(rho=0.05, lam=0.05, eta=0.5, batch_size=40, steps=1500, seed=11)
    params, traj = train_sam(spec, ds, cfg)
    return spec, ds, cfg, params, traj


class TestNeumann:
    def test_identity_operator(self):
        g = np.random.default_rng(0).standard_normal(10)
        cfg = NeumannConfig(order=2000, damp=0.0, zeta=1e-14)
        v = neumann_ihvp(lambda x: x, g, cfg)
        np.testing.assert_allclose(v, g, rtol=1e-10)

    def test_diagonal_operator(self):
        d = np.array([0.5, 1.0, 2.0, 4.0])
        g = np.array([1.0, 1.0, 1.0, 1.0])
        cfg = NeumannConfig(order=5000, damp=0.0, zeta=1e-15)
        v = neumann_ihvp(lambda x: d * x, g, cfg)
        np.testing.assert_allclose(v, 1.0 / d, rtol=1e-8)

    def test_spd_matrix_matches_solve(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((20, 20))
        A = M @ M.T / 20 + 0.1 * np.eye(20)
        g = rng.standard_normal(20)
        cfg = NeumannConfig(order=5000, damp=0.0, zeta=1e-14)
        v = neumann_ihvp(lambda x: A @ x, g, cfg)
        np.testing.assert_allclose(v, np.linalg.solve(A, g), rtol=1e-6, atol=1e-8)

    def test_damping_shifts_the_operator(self):
        A = np.diag([1.0, 2.0])
        g = np.array([1.0, 1.0])
        cfg = NeumannConfig(order=5000, damp=0.5, zeta=1e-15)
        v = neumann_ihvp(lambda x: A @ x, g, cfg)
        np.testing.assert_allclose(v, [1.0 / 1.5, 1.0 / 2.5], rtol=1e-8)

    def test_early_stop_residual(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((15, 15))
        A = M @ M.T / 15 + 0.2 * np.eye(15)
        g = rng.standard_normal(15)
        zeta = 1e-9
        cfg = NeumannConfig(order=100000, damp=0.0, zeta=zeta)
        v = neumann_ihvp(lambda x: A @ x, g, cfg)
        # A stopped iteration leaves a residual commensurate with zeta.
        assert np.abs(A @ v - g).sum() < 10 * zeta / 0.9 * np.linalg.norm(A, 2)

    def test_divergence_raises(self):
        # alpha far above 2/lambda_max makes the iteration blow up.
        A = np.diag([1.0, 50.0])
        g = np.array([1.0, 1.0])
        cfg = NeumannConfig(order=2000, alpha=1.0, damp=0.0, zeta=1e-15)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                neumann_ihvp(lambda x: A @ x, g, cfg)

    @pytest.mark.parametrize("value", [0.0, np.inf], ids=["zero", "inf"])
    def test_auto_alpha_keeps_its_start_when_a_product_is_useless(self, value):
        # The power iteration stops at a zero or non-finite product and keeps lam_max = 1.
        assert influence._auto_alpha(lambda z: np.full_like(z, value), 6) == 0.9

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            NeumannConfig(order=0)
        with pytest.raises(InvalidInputError):
            NeumannConfig(alpha=-1.0)
        with pytest.raises(InvalidInputError):
            NeumannConfig(zeta=0.0)
        for damp in (float("nan"), float("inf")):  # NaN would pass a "damp < 0" check
            with pytest.raises(InvalidInputError, match="finite damp"):
                NeumannConfig(damp=damp)


class TestIfFast:
    def test_matches_dense_solve(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        rows = ds.indices("train")
        scale = 1.0 / rows.size
        ncfg = NeumannConfig(order=5000, damp=0.0, zeta=1e-14)
        ifvec = sam_if_fast(spec, ds, params, cfg.rho, cfg.p, cfg.lam, 3, ncfg)

        _, g = mod.subset_loss_grad(spec, params, ds, rows, scale)
        eps = worst_perturbation(g, cfg.rho, cfg.p)
        H = dense_hessian(spec, params + eps, ds, cfg.lam, rows, scale)
        _, gk = mod.subset_loss_grad(spec, params + eps, ds, rows[3], scale)
        expected = -np.linalg.solve(H, gk)
        assert np.linalg.norm(ifvec - expected) < 1e-3 * np.linalg.norm(expected)

    def test_duplicate_points_identical_influence(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        X[7] = X[2]  # exact duplicate
        y = rng.integers(0, 2, size=10)
        y[7] = y[2]
        ds = Dataset(features=X, labels=y)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        params = mod.init_params(spec, seed=1)
        ncfg = NeumannConfig(order=3000, zeta=1e-13)
        a = sam_if_fast(spec, ds, params, 0.05, 2.0, 0.1, 2, ncfg)
        b = sam_if_fast(spec, ds, params, 0.05, 2.0, 0.1, 7, ncfg)
        assert np.abs(a - b).max() < 1e-9

    def test_zero_gradient_zero_influence(self):
        # A perfectly balanced two-point dataset at zero parameters still
        # has per-point gradients, so instead feed delta = 0 indirectly:
        # a point whose example gradient vanishes gets zero influence.
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        ds = Dataset(features=X, labels=y)
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 2))
        # Weights that classify both points with total confidence drive the
        # per-example gradient to numerical zero.
        params = np.array([400.0, 0.0, -400.0, 0.0, 0.0, 0.0])
        ncfg = NeumannConfig(order=100)
        ifvec = sam_if_fast(spec, ds, params, 0.0, 2.0, 0.1, 0, ncfg)
        assert np.all(ifvec == 0.0)

    def test_index_out_of_range(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        with pytest.raises(InvalidInputError):
            sam_if_fast(spec, ds, params, cfg.rho, cfg.p, cfg.lam, 999, NeumannConfig())


class TestEpsJacobian:
    def test_analytic_p2_matches_finite_difference(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        rng = np.random.default_rng(6)
        v = rng.standard_normal(spec.param_count)
        jv = eps_jacobian_vec(spec, ds, params, cfg.rho, 2.0, v)
        rows = ds.indices("train")
        scale = 1.0 / rows.size
        h = 1e-6
        _, gp = mod.subset_loss_grad(spec, params + h * v, ds, rows, scale)
        _, gm = mod.subset_loss_grad(spec, params - h * v, ds, rows, scale)
        jv_fd = (
            worst_perturbation(gp, cfg.rho, 2.0) - worst_perturbation(gm, cfg.rho, 2.0)
        ) / (2.0 * h)
        assert np.abs(jv - jv_fd).max() < 1e-5 * max(1.0, np.abs(jv).max())

    def test_linear_in_v_for_p2(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        rng = np.random.default_rng(7)
        u = rng.standard_normal(spec.param_count)
        v = rng.standard_normal(spec.param_count)
        lhs = eps_jacobian_vec(spec, ds, params, cfg.rho, 2.0, 2.0 * u + v)
        rhs = 2.0 * eps_jacobian_vec(spec, ds, params, cfg.rho, 2.0, u) + eps_jacobian_vec(
            spec, ds, params, cfg.rho, 2.0, v
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_rho_zero_is_zero(self, convex_setup):
        spec, ds, _, params, _ = convex_setup
        v = np.ones(spec.param_count)
        assert np.all(eps_jacobian_vec(spec, ds, params, 0.0, 2.0, v) == 0.0)

    def test_orthogonal_to_gradient_image(self, convex_setup):
        # For p=2, eps = rho*g/||g||; its derivative image is orthogonal
        # to g (moving on the sphere), so g . (J v) ~ 0.
        spec, ds, cfg, params, _ = convex_setup
        rows = ds.indices("train")
        _, g = mod.subset_loss_grad(spec, params, ds, rows, 1.0 / rows.size)
        v = np.random.default_rng(8).standard_normal(spec.param_count)
        jv = eps_jacobian_vec(spec, ds, params, cfg.rho, 2.0, v)
        assert abs(float(g @ jv)) < 1e-12 * np.linalg.norm(g) * np.linalg.norm(jv) + 1e-14

    def test_general_p_close_to_p2_at_p2(self, convex_setup):
        # The finite-difference fallback evaluated at p=4 stays finite and
        # has the right order of magnitude compared with the analytic p=2.
        spec, ds, cfg, params, _ = convex_setup
        v = np.random.default_rng(9).standard_normal(spec.param_count)
        jv = eps_jacobian_vec(spec, ds, params, cfg.rho, 4.0, v)
        assert np.all(np.isfinite(jv))


class TestHif:
    def test_equals_if_fast_at_rho_zero(self):
        ds = make_blobs(40, 4, 2, 2.0, seed=12)
        spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
        cfg = SAMConfig(rho=0.0, lam=0.05, eta=0.5, batch_size=40, steps=1500, seed=12)
        params, _ = train_sam(spec, ds, cfg)
        ncfg = NeumannConfig(order=5000, zeta=1e-14)
        for k in (0, 5, 17):
            a = sam_if_fast(spec, ds, params, 0.0, 2.0, cfg.lam, k, ncfg)
            b = sam_hif(spec, ds, params, 0.0, 2.0, cfg.lam, k, ncfg)
            assert np.abs(a - b).max() < 1e-9

    def test_matches_dense_total_operator(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        rows = ds.indices("train")
        scale = 1.0 / rows.size
        P = spec.param_count
        _, g = mod.subset_loss_grad(spec, params, ds, rows, scale)
        eps = worst_perturbation(g, cfg.rho, cfg.p)
        w_pert = params + eps
        # Assemble (H_pert + lam I) + H_pert @ J_eps densely.
        A = dense_hessian(spec, w_pert, ds, cfg.lam, rows, scale)
        J = np.empty((P, P))
        e = np.zeros(P)
        for i in range(P):
            e[i] = 1.0
            J[:, i] = eps_jacobian_vec(spec, ds, params, cfg.rho, cfg.p, e)
            e[i] = 0.0
        Hp = dense_hessian(spec, w_pert, ds, 0.0, rows, scale)
        A_total = A + Hp @ J
        _, gk = mod.subset_loss_grad(spec, w_pert, ds, rows[4], scale)
        expected = -np.linalg.solve(A_total, gk)
        ncfg = NeumannConfig(order=8000, damp=0.0, zeta=1e-14)
        got = sam_hif(spec, ds, params, cfg.rho, cfg.p, cfg.lam, 4, ncfg)
        assert np.linalg.norm(got - expected) < 1e-3 * np.linalg.norm(expected)


class TestGif:
    def test_never_sampled_point_zero_influence(self):
        ds = make_blobs(30, 3, 2, 2.0, seed=13)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, eta=0.2, batch_size=5, steps=40, seed=13)
        # A schedule that deliberately never touches point 0.
        rng = np.random.default_rng(99)
        steps = [
            np.sort(rng.choice(np.arange(1, 30), size=5, replace=False)).astype(np.int64)
            for _ in range(40)
        ]
        schedule = np.stack(steps)
        params = np.empty((41, spec.param_count))
        X, y = mod._split_rows(spec, ds, "train")
        train_sam_many(spec, X, y, cfg, schedule[:, None], np.ones(1), ["training"], params)
        traj = recorded_trajectory(params, schedule, 30, cfg)
        ifvec = sam_gif(traj, spec, ds, 0, mode="sgd")
        assert np.all(ifvec == 0.0)

    def test_displacement_identity_full_batch_gd(self):
        """Sum of influences over all points telescopes into w_T - w_0
        when rho = 0, lam = 0, full batch."""
        ds = make_blobs(25, 3, 2, 2.0, seed=14)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.0, lam=0.0, eta=0.3, batch_size=25, steps=60, seed=14)
        w, traj = train_sam(spec, ds, cfg)
        w0 = mod.init_params(spec, cfg.seed)
        total = np.zeros(spec.param_count)
        for k in range(25):
            total += sam_gif(traj, spec, ds, k, mode="gd")
        np.testing.assert_allclose(total, w - w0, atol=1e-8)

    def test_displacement_identity_minibatch_sgd(self):
        """The same telescoping holds for minibatch SGD in sgd mode: each
        step moves w by its batch points' gradients, each listed once."""
        ds = make_blobs(30, 4, 3, 2.5, seed=31)
        spec = ModelSpec(kind="logistic", layer_sizes=(4, 3))
        cfg = SAMConfig(rho=0.0, lam=0.0, eta=0.2, batch_size=6, steps=25, seed=31)
        w, traj = train_sam(spec, ds, cfg)
        displacement = w - mod.init_params(spec, cfg.seed)
        total = sum(sam_gif(traj, spec, ds, k, mode="sgd") for k in range(30))
        assert np.abs(total - displacement).max() <= 1e-12 * np.abs(displacement).max()

    def test_gd_and_sgd_modes_agree_for_full_batch(self, convex_setup):
        spec, ds, _, _, traj = convex_setup
        a = sam_gif(traj, spec, ds, 2, mode="gd")
        b = sam_gif(traj, spec, ds, 2, mode="sgd")
        np.testing.assert_array_equal(a, b)

    def test_needs_sam_settings(self, convex_setup):
        # gif recomputes each step's perturbation from the trajectory's rho
        # and p, so a trajectory without them cannot be built at all.
        traj = convex_setup[4]
        from dataclasses import replace

        with pytest.raises(InvalidInputError, match="^trajectory rho must be finite"):
            replace(traj, rho=None, p=None)

    def test_rejects_mismatched_model(self, convex_setup):
        _, ds, _, _, traj = convex_setup
        other = ModelSpec(kind="mlp", layer_sizes=(4, 9, 2))
        with pytest.raises(InvalidInputError):
            sam_gif(traj, other, ds, 0)

    def test_rejects_unknown_mode(self, convex_setup):
        spec, ds, _, _, traj = convex_setup
        with pytest.raises(InvalidInputError, match="^unknown gif mode 'batch'$"):
            sam_gif(traj, spec, ds, 0, mode="batch")

    def test_rejects_another_train_size(self, convex_setup):
        # The trajectory was trained on 40 rows; this dataset has 41.
        spec, ds, _, _, traj = convex_setup
        more = Dataset(features=np.vstack([ds.features, ds.features[:1]]),
                       labels=np.append(ds.labels, ds.labels[0]))
        with pytest.raises(InvalidInputError,
                           match="^trajectory train size does not match the dataset$"):
            sam_gif(traj, spec, more, 0)


@pytest.mark.parametrize("entry", [influence_vectors, influence_scores])
def test_dispatch_rejects_an_unknown_estimator(convex_setup, entry):
    spec, ds, cfg, params, traj = convex_setup
    args = ("if-fast", spec, ds, params, cfg.rho, cfg.p, cfg.lam, NeumannConfig(), [0], traj,
            "sgd")
    queries = () if entry is influence_vectors else (np.ones((1, spec.param_count)),)
    with pytest.raises(InvalidInputError, match="^unknown estimator 'if-fast'$"):
        entry(*args, *queries)


class TestScoreAndEdit:
    def test_zero_influence_zero_score(self, convex_setup):
        spec, ds, _, params, _ = convex_setup
        val = ds.indices("val")
        assert influence_score(spec, params, ds, val, np.zeros(spec.param_count)) == 0.0

    def test_orthogonal_influence_zero_score(self, convex_setup):
        spec, ds, _, params, _ = convex_setup
        val = ds.indices("val")
        _, gval = mod.subset_loss_grad(spec, params, ds, val, 1.0)
        v = np.random.default_rng(15).standard_normal(spec.param_count)
        v -= gval * float(gval @ v) / float(gval @ gval)
        score = influence_score(spec, params, ds, val, v)
        assert abs(score) < 1e-10 * np.linalg.norm(gval) * np.linalg.norm(v)

    def test_score_linear_in_influence(self, convex_setup):
        spec, ds, _, params, _ = convex_setup
        val = ds.indices("val")
        v = np.random.default_rng(16).standard_normal(spec.param_count)
        s1 = influence_score(spec, params, ds, val, v)
        s2 = influence_score(spec, params, ds, val, 2.5 * v)
        assert s2 == pytest.approx(2.5 * s1, rel=1e-12)


class TestComputeInfluence:
    def test_unknown_estimator_is_refused(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        with pytest.raises(InvalidInputError, match="unknown estimator 'nope'"):
            compute_influence("nope", spec, ds, params, cfg.rho, cfg.p, cfg.lam, 0,
                              NeumannConfig())

    @pytest.mark.parametrize("estimator", ["if_fast", "hif", "gif"])
    def test_is_the_one_row_case(self, convex_setup, estimator):
        # The vector is influence_vectors' row for [k] and the score is
        # influence_score's over the val split, both bit for bit.
        spec, ds, cfg, params, traj = convex_setup
        ncfg = NeumannConfig(order=3000)
        ifvec, score = compute_influence(estimator, spec, ds, params, cfg.rho, cfg.p, cfg.lam, 1,
                                         ncfg, traj)
        row = influence_vectors(estimator, spec, ds, params, cfg.rho, cfg.p, cfg.lam, ncfg, [1],
                                traj, "sgd")[0]
        assert np.array_equal(ifvec, row)
        assert score == influence_score(spec, params, ds, ds.indices("val"), row)
        assert np.isfinite(score)

    def test_gif_requires_trajectory(self, convex_setup):
        spec, ds, cfg, params, _ = convex_setup
        with pytest.raises(InvalidInputError):
            compute_influence("gif", spec, ds, params, cfg.rho, cfg.p, cfg.lam, 0,
                              NeumannConfig())
