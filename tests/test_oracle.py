import numpy as np
import pytest

from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.influence import NeumannConfig
from samattr.model import Dataset, ModelSpec
from samattr.oracle import (
    _corr_or_zero,
    _sign_agreement,
    calibrate_estimator,
    dense_hessian,
    loo_retrain,
    loo_schedule,
    validation_loss,
)
from samattr.numcore import sample_batches
from samattr.samtrain import SAMConfig, train_sam


class TestLooSchedule:
    def test_full_batch_drops_the_slot(self):
        cfg = SAMConfig(batch_size=10, steps=5, seed=0)
        sched = loo_schedule(10, 3, cfg)
        assert sched.shape[1] == 9
        for step in sched:
            assert step.size == 9
            # Index 3 was removed and higher indices were shifted down.
            assert np.array_equal(step, np.arange(9))

    def test_minibatch_resamples_deterministically(self):
        cfg = SAMConfig(batch_size=4, steps=30, seed=1)
        a = loo_schedule(20, 7, cfg)
        b = loo_schedule(20, 7, cfg)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)
        # Reduced range: indices land in 0..18 and each batch keeps its size.
        for step in a:
            assert step.size == 4
            assert step.max() < 19

    def test_untouched_batches_only_remap(self):
        from samattr.numcore import sample_batches

        cfg = SAMConfig(batch_size=4, steps=30, seed=2)
        base = sample_batches(20, 4, 30, 2)
        sched = loo_schedule(20, 19, cfg)  # removing the last index never shifts others
        for orig, new in zip(base, sched):
            if 19 not in orig:
                assert np.array_equal(orig, new)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            loo_schedule(10, 10, SAMConfig(batch_size=2, steps=1))


class TestLooRetrain:
    def test_deterministic(self):
        ds = make_blobs(20, 3, 2, 2.0, seed=3)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, lam=0.05, eta=0.3, batch_size=5, steps=60, seed=3)
        a = loo_retrain(spec, ds, 4, cfg)
        b = loo_retrain(spec, ds, 4, cfg)
        np.testing.assert_array_equal(a, b)

    def test_outlier_moves_params_more_than_duplicate(self):
        # Removing one of two identical points barely matters; removing a
        # far-out mislabeled point moves the optimum much more.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((16, 3)) + 2.0
        y = np.zeros(16, dtype=np.int64)
        X[8:] = rng.standard_normal((8, 3)) - 2.0
        y[8:] = 1
        X[0] = X[1]  # duplicate pair
        y[0] = y[1]
        X[15] = [8.0, 8.0, 8.0]  # deep inside class 0 territory but labeled 1
        ds = Dataset(features=X, labels=y)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.0, lam=0.1, eta=0.5, batch_size=16, steps=800, seed=0)
        base, _ = train_sam(spec, ds, cfg)
        d_dup = np.linalg.norm(loo_retrain(spec, ds, 0, cfg) - base)
        d_out = np.linalg.norm(loo_retrain(spec, ds, 15, cfg) - base)
        assert d_out > 5.0 * d_dup

    def test_two_point_minimum(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        ds = Dataset(features=X, labels=y)
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 2))
        cfg = SAMConfig(rho=0.0, lam=0.5, eta=0.5, batch_size=2, steps=300, seed=0)
        w = loo_retrain(spec, ds, 0, cfg)
        assert np.all(np.isfinite(w))

    def test_too_few_points(self):
        ds = Dataset(features=np.ones((1, 2)), labels=np.zeros(1, dtype=np.int64))
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 2))
        with pytest.raises(InvalidInputError):
            loo_retrain(spec, ds, 0, SAMConfig(batch_size=1, steps=1))


def _single_point_schedule_reference(n, k, config):
    """Leave-one-out schedule as a plain loop: the definition a single index
    must keep bit for bit."""
    base = sample_batches(n, config.batch_size, config.steps, config.seed)
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, k, 0x10E])
    steps = []
    for batch in base:
        batch = batch.copy()
        if k in batch:
            if batch.size == n:
                batch = batch[batch != k]
            else:
                candidates = np.asarray([i for i in range(n) if i not in set(batch.tolist())])
                batch[batch == k] = rng.choice(candidates)
        steps.append(np.sort(np.where(batch > k, batch - 1, batch)))
    return steps


class TestRemovalSets:
    N = 30

    def cfg(self, **kw):
        base = dict(rho=0.05, lam=0.1, eta=0.3, batch_size=8, steps=40, seed=11)
        base.update(kw)
        return SAMConfig(**base)

    @pytest.mark.parametrize("b", [8, 30])
    def test_singleton_set_equals_int(self, b):
        cfg = self.cfg(batch_size=b)
        for k in (0, 13, 29):
            a, s = loo_schedule(self.N, k, cfg), loo_schedule(self.N, [k], cfg)
            assert a.shape[1] == s.shape[1]
            assert all(np.array_equal(x, y) for x, y in zip(a, s))

    @pytest.mark.parametrize("b", [1, 8, 29, 30])
    def test_single_index_matches_loop_reference(self, b):
        cfg = self.cfg(batch_size=b)
        for k in range(self.N):
            got = loo_schedule(self.N, k, cfg)
            assert got.shape[1] == min(b, self.N - 1)
            ref = _single_point_schedule_reference(self.N, k, cfg)
            assert all(np.array_equal(x, y) for x, y in zip(got, ref))

    def test_singleton_set_retrain_equals_int(self):
        ds = make_blobs(self.N, 3, 2, 2.0, seed=11)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        n = ds.indices("train").size
        cfg = self.cfg(batch_size=min(8, n))
        assert np.array_equal(loo_retrain(spec, ds, 4, cfg), loo_retrain(spec, ds, [4], cfg))

    @pytest.mark.parametrize("b", [8, 26, 30])
    def test_set_schedule_drops_and_remaps(self, b):
        removed = [2, 3, 17, 29]
        cfg = self.cfg(batch_size=b)
        base = sample_batches(self.N, b, cfg.steps, cfg.seed)
        sched = loo_schedule(self.N, removed, cfg)
        kept = np.setdiff1d(np.arange(self.N), removed)  # reduced index j -> original kept[j]
        b_new = min(b, self.N - len(removed))
        assert sched.shape[1] == b_new
        for orig, step in zip(base, sched):
            assert step.size == b_new and np.unique(step).size == b_new
            assert step.min() >= 0 and step.max() < self.N - len(removed)
            # Back in original indices: no removed point, and every
            # surviving point of the original batch is still there.
            back = kept[step]
            assert not np.isin(back, removed).any()
            assert np.isin(np.setdiff1d(orig, removed), back).all()

    def test_full_batch_steps_shrink_by_set_size(self):
        cfg = self.cfg(batch_size=self.N)
        sched = loo_schedule(self.N, [0, 5, 6], cfg)
        assert sched.shape[1] == self.N - 3
        for step in sched:
            assert np.array_equal(step, np.arange(self.N - 3))

    def test_order_of_set_does_not_matter(self):
        cfg = self.cfg()
        a = loo_schedule(self.N, [21, 4, 9], cfg)
        b = loo_schedule(self.N, np.array([4, 9, 21]), cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        ds = make_blobs(self.N, 3, 2, 2.0, seed=11)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        assert np.array_equal(
            loo_retrain(spec, ds, (9, 4), cfg), loo_retrain(spec, ds, [4, 9], cfg)
        )

    def test_set_retrain_keeps_one_over_n_weight(self):
        # Full-batch GD without SAM converges to the stationary point of
        # (1/n) * sum over the kept points + lam/2 ||w||^2, not of the
        # renormalized 1/(n-|S|) mean.
        ds = make_blobs(self.N, 3, 2, 2.0, seed=12)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        rows = ds.indices("train")
        n = rows.size
        cfg = SAMConfig(rho=0.0, lam=0.1, eta=0.5, batch_size=n, steps=2000, seed=0)
        removed = [0, 3, 7]
        w = loo_retrain(spec, ds, removed, cfg)
        kept = np.delete(rows, removed)
        _, g = mod.subset_loss_grad(spec, w, ds, kept, 1.0)
        assert np.linalg.norm(g / n + cfg.lam * w) < 1e-8
        assert np.linalg.norm(g / kept.size + cfg.lam * w) > 1e-3

    @pytest.mark.parametrize("bad", [[1, 1], [-1], [0, 30], [0.5], [[1, 2]]])
    def test_invalid_sets(self, bad):
        with pytest.raises(InvalidInputError):
            loo_schedule(self.N, bad, self.cfg())

    def test_removing_every_point_is_named(self):
        ds = make_blobs(20, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        n = ds.indices("train").size
        with pytest.raises(InvalidInputError, match="leaves none"):
            loo_retrain(spec, ds, range(n), SAMConfig(batch_size=n, steps=5))


class TestDenseHessian:
    def setup_method(self):
        self.ds = make_blobs(20, 3, 2, 2.0, seed=5)
        self.spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        self.params = mod.init_params(self.spec, seed=5)

    def test_symmetric(self):
        H = dense_hessian(self.spec, self.params, self.ds, lam=0.1)
        assert np.abs(H - H.T).max() < 1e-12

    def test_lambda_on_the_diagonal(self):
        H0 = dense_hessian(self.spec, self.params, self.ds, lam=0.0)
        H1 = dense_hessian(self.spec, self.params, self.ds, lam=0.7)
        np.testing.assert_allclose(H1 - H0, 0.7 * np.eye(H0.shape[0]), atol=1e-14)

    def test_empty_index_set_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="index set is empty"):
            dense_hessian(self.spec, self.params, self.ds, indices=[])

    def test_positive_semidefinite_for_softmax(self):
        H = dense_hessian(self.spec, self.params, self.ds, lam=0.0)
        eig = np.linalg.eigvalsh(H)
        assert eig.min() > -1e-10

    def test_matches_loss_finite_differences(self):
        rows = self.ds.indices("train")
        H = dense_hessian(self.spec, self.params, self.ds, lam=0.0, indices=rows, scale=1.0)
        P = self.spec.param_count
        h = 1e-5
        rng = np.random.default_rng(6)
        u = rng.standard_normal(P)
        v = rng.standard_normal(P)

        def loss_at(w):
            val, _ = mod.subset_loss_grad(self.spec, w, self.ds, rows, 1.0)
            return val

        # Second directional difference approximates u^T H v.
        quad = (
            loss_at(self.params + h * u + h * v)
            - loss_at(self.params + h * u - h * v)
            - loss_at(self.params - h * u + h * v)
            + loss_at(self.params - h * u - h * v)
        ) / (4.0 * h * h)
        assert quad == pytest.approx(float(u @ H @ v), rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_rows_outside_the_dataset_are_rejected(self, past_end):
        # -1 would silently be the last row (a test-split row here), and n
        # would index past the end.
        rows = np.array([0, self.ds.n if past_end else -1])
        units = np.eye(2, self.spec.param_count)
        for call in (
            lambda: mod.hvp(self.spec, self.params, self.ds, rows, units),
            lambda: mod.example_grads(self.spec, self.params, self.ds, rows),
            lambda: mod.subset_loss_grad(self.spec, self.params, self.ds, rows),
            lambda: dense_hessian(self.spec, self.params, self.ds, indices=rows),
        ):
            with pytest.raises(InvalidInputError, match="out of range"):
                call()

    def test_refuses_large_models(self):
        big = ModelSpec(kind="mlp", layer_sizes=(100, 100, 10))
        ds = Dataset(features=np.zeros((2, 100)), labels=np.array([0, 1]))
        with pytest.raises(InvalidInputError):
            dense_hessian(big, np.zeros(big.param_count), ds)


class TestValidationLoss:
    def test_sums_val_split(self):
        ds = make_blobs(20, 3, 2, 2.0, seed=7)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        params = mod.init_params(spec, seed=7)
        val = ds.indices("val")
        expected, _ = mod.subset_loss_grad(spec, params, ds, val, 1.0)
        assert validation_loss(spec, params, ds) == pytest.approx(expected, rel=1e-14)

    def test_requires_val_rows(self):
        ds = Dataset(features=np.ones((2, 2)), labels=np.array([0, 1]))
        spec = ModelSpec(kind="logistic", layer_sizes=(2, 2))
        with pytest.raises(InvalidInputError):
            validation_loss(spec, np.zeros(spec.param_count), ds)


class TestCalibrate:
    def test_null_estimator_scores_half(self):
        # An all-zero prediction carries no direction: every pair counts half,
        # and its correlations are undefined, so they read 0.
        predicted = np.zeros(8)
        actual = np.array([0.3, -1.2, 0.0, 2.5, -0.1, 0.7, -0.4, 1.1])
        assert _sign_agreement(predicted, actual) == pytest.approx(0.5)
        assert _corr_or_zero(predicted, actual) == 0.0
        assert _corr_or_zero(predicted, actual, ranked=True) == 0.0

    def test_fast_estimator_beats_null_on_convex_problem(self):
        ds = make_blobs(24, 3, 2, 2.0, seed=9)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, lam=0.1, eta=0.5, batch_size=24, steps=600, seed=9)
        ncfg = NeumannConfig(order=3000, zeta=1e-12)
        rep = calibrate_estimator(spec, ds, cfg, "if_fast", sample_size=24, ncfg=ncfg)
        assert rep.spearman > 0.8
        assert rep.sign_agreement > 0.8
        assert -1.0 <= rep.pearson <= 1.0

    def test_sample_size_validation(self):
        ds = make_blobs(10, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(batch_size=10, steps=10)
        with pytest.raises(InvalidInputError):
            calibrate_estimator(spec, ds, cfg, "if_fast", sample_size=11)

    @pytest.mark.parametrize("size", [0, -3])
    def test_sample_size_below_one(self, size):
        ds = make_blobs(10, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(batch_size=10, steps=10)
        with pytest.raises(InvalidInputError, match="sample_size"):
            calibrate_estimator(spec, ds, cfg, "if_fast", sample_size=size)
