"""calibrate's NumPy correlations against scipy.stats, compared with ==.

The package computes Pearson and Spearman itself so that no CLI call has
to import scipy.stats; the values must stay bitwise scipy's. The
reference below is the package's former guard around scipy.stats.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from samattr.oracle import _average_ranks, _corr_or_zero


def reference(fn, a, b):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        if len(a) < 2 or np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
            return 0.0
        r = fn(a, b)[0]
    return float(r) if np.isfinite(r) else 0.0


def assert_matches_scipy(a, b):
    assert _corr_or_zero(a, b) == reference(stats.pearsonr, a, b)
    assert _corr_or_zero(a, b, ranked=True) == reference(stats.spearmanr, a, b)


def random_pair(seed, n, exponent, ties, related):
    """Two length-n vectors at scale 10**exponent; with ties, both are drawn
    from a few multiples of the scale, so most values repeat."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    a = rng.standard_normal(n)
    b = related * a + rng.standard_normal(n)
    if ties:
        a, b = np.round(2 * a), np.round(b)
    return a * scale, b * scale


pairs = st.builds(
    random_pair,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    exponent=st.floats(-8.0, 3.0),
    ties=st.booleans(),
    related=st.sampled_from([0.0, 0.3, -2.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs)
# n = 2: the dot of the two unit vectors is -0.9999999999999999 before rounding.
@example((np.array([0.1, 0.7]), np.array([0.3, 0.2])))
def test_random_pairs_match_scipy(pair):
    assert_matches_scipy(*pair)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs, st.floats(1e-15, 1e-9))
def test_nearly_constant_vectors_match_scipy(pair, spread):
    a, b = pair
    assert_matches_scipy(1.0 + spread * a / (np.max(np.abs(a)) or 1.0), b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
def test_average_ranks_match_rankdata(values):
    v = np.array(values, dtype=float)
    np.testing.assert_array_equal(_average_ranks(v), stats.rankdata(v, method="average"))


@pytest.mark.parametrize("n", [2, 3, 17])
def test_two_points_and_short_vectors(n):
    a, b = random_pair(5, n, 0.0, False, 0.3)
    assert_matches_scipy(a, b)
    assert abs(_corr_or_zero(a, b)) <= 1.0


@pytest.mark.parametrize("side", ["a", "b"])
def test_nan_gives_zero_for_both(side):
    a, b = random_pair(1, 20, 0.0, False, 0.3)
    (a if side == "a" else b)[4] = np.nan
    assert _corr_or_zero(a, b) == 0.0
    assert _corr_or_zero(a, b, ranked=True) == 0.0
    assert_matches_scipy(a, b)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinity_zeroes_pearson_but_keeps_its_rank(value):
    a, b = random_pair(2, 20, 0.0, False, 0.3)
    a[3] = value
    assert _corr_or_zero(a, b) == 0.0
    rho = _corr_or_zero(a, b, ranked=True)
    assert rho != 0.0 and rho == reference(stats.spearmanr, a, b)
    assert_matches_scipy(a, b)


def test_both_infinities_and_an_all_infinite_side():
    a, b = random_pair(3, 10, 0.0, False, -2.0)
    a[[0, 5]] = [np.inf, -np.inf]
    assert_matches_scipy(a, b)
    assert _corr_or_zero(np.full(4, np.inf), b[:4], ranked=True) == 0.0


@pytest.mark.parametrize(
    "a,b",
    [
        (np.full(5, 2.5), np.arange(5.0)),
        (np.arange(5.0), np.zeros(5)),
        (np.array([1.0]), np.array([3.0])),
        (np.array([]), np.array([])),
    ],
)
def test_constant_or_short_input_gives_zero(a, b):
    assert _corr_or_zero(a, b) == 0.0
    assert _corr_or_zero(a, b, ranked=True) == 0.0
