import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samattr.errors import ConfigError, InvalidInputError
from samattr.datasets import make_blobs
from samattr.influence import perturbed_params
from samattr.model import ModelSpec, init_params
from samattr.numcore import dual_exponent, p_norm, sample_batches
from samattr.samtrain import worst_perturbation


class TestPNorm:
    def test_pythagorean(self):
        assert p_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, math.inf])
    def test_zero_vector(self, p):
        assert p_norm(np.zeros(3), p) == 0.0

    def test_absolute_sum(self):
        assert p_norm(np.array([1.0, -2.0, 3.0]), 1) == pytest.approx(6.0)

    def test_inf_norm(self):
        assert p_norm(np.array([1.0, -7.0, 3.0]), math.inf) == 7.0

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            p_norm(np.array([1.0, np.nan]), 2)

    @pytest.mark.parametrize("scale", [1e-5, 1e-2, 1.0, 1e2, 1e5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_matches_numpy_norm(self, p, scale):
        # One max-rescaled formula for every finite p, p = 1 and p = 2 included.
        rng = np.random.default_rng(int(p * 10))
        for _ in range(20):
            v = scale * rng.standard_normal(int(rng.integers(1, 200)))
            assert p_norm(v, p) == pytest.approx(np.linalg.norm(v, p), rel=1e-15, abs=0.0)

    def test_large_entries_do_not_overflow(self):
        # Squaring 1e200 overflows to inf; squaring entries rescaled by the max does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = p_norm(np.array([1e200, 1e200, -3e199]), 2)
        assert math.isfinite(norm) and norm == pytest.approx(1.4457e200, rel=1e-4)

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidInputError):
            p_norm(np.ones(2), 0.5)

    @given(
        c=st.floats(-100, 100, allow_nan=False),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, c, p, seed):
        v = np.random.default_rng(seed).standard_normal(7)
        left = p_norm(c * v, p)
        right = abs(c) * p_norm(v, p)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2.0) == pytest.approx(2.0)

    def test_p4(self):
        assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)

    def test_p_1_5(self):
        assert dual_exponent(1.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.inf])
    def test_domain(self, p):
        with pytest.raises(InvalidInputError):
            dual_exponent(p)

    def test_nan_p_is_refused_by_the_perturbation_helpers(self):
        # NaN fails every comparison, so "p <= 1.0" alone would let it through.
        with pytest.raises(InvalidInputError, match="dual_exponent"):
            worst_perturbation(np.array([1.0, -2.0, 0.5]), 0.05, math.nan)
        spec = ModelSpec("logistic", (3, 2))
        ds = make_blobs(20, 3, 2, 2.0, seed=1)
        with pytest.raises(InvalidInputError, match="dual_exponent"):
            perturbed_params(spec, ds, init_params(spec, 1), 0.05, math.nan)

    @given(p=st.floats(1.0001, 1000, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, p):
        assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-12)


class TestSampleBatches:
    def test_full_batch(self):
        sched = sample_batches(4, 4, 3, seed=0)
        for step in sched:
            assert np.array_equal(step, np.arange(4))

    def test_deterministic(self):
        a = sample_batches(100, 10, 5, seed=7)
        b = sample_batches(100, 10, 5, seed=7)
        for sa, sb in zip(a, b):
            assert sa.tobytes() == sb.tobytes()

    def test_distinct_within_step_and_range(self):
        sched = sample_batches(50, 12, 20, seed=3)
        for step in sched:
            assert len(set(step.tolist())) == 12
            assert step.min() >= 0 and step.max() < 50

    def test_membership_frequency(self):
        # Each index should appear in about b*T/n = 100 steps.
        sched = sample_batches(100, 10, 1000, seed=7)
        counts = np.bincount(np.concatenate(sched), minlength=100)
        assert counts.min() > 60 and counts.max() < 140
        assert counts.sum() == 10 * 1000

    def test_batch_too_large(self):
        with pytest.raises(ConfigError):
            sample_batches(5, 6, 1, seed=0)

    def test_epoch_shuffled_covers_everything(self):
        sched = sample_batches(12, 4, 3, seed=0, epoch_shuffled=True)
        seen = np.concatenate(sched)
        assert sorted(seen.tolist()) == list(range(12))

    def test_epoch_shuffled_batches_distinct_when_b_does_not_divide_n(self):
        # 32 does not divide 40: batches straddle epoch boundaries.
        sched = sample_batches(40, 32, 30, seed=0, epoch_shuffled=True)
        for step in sched:
            assert step.size == 32 and np.unique(step).size == 32
            assert step.min() >= 0 and step.max() < 40
        # Skipped points stay queued, so per-point counts differ by at most one.
        counts = np.bincount(np.concatenate(sched), minlength=40)
        assert counts.max() - counts.min() <= 1

    def test_epoch_shuffled_is_consecutive_permutations_when_b_divides_n(self):
        sched = sample_batches(12, 4, 9, seed=5, epoch_shuffled=True)
        rng = np.random.default_rng(5)
        stream = np.concatenate([rng.permutation(12) for _ in range(3)])
        for t, step in enumerate(sched):
            assert np.array_equal(step, np.sort(stream[4 * t : 4 * t + 4]))
