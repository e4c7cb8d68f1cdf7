"""Deterministic numeric primitives: norms, dual exponents, batch schedules, removal sets."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InvalidInputError


def p_norm(v: np.ndarray, p: float) -> float:
    """Return the l_p norm of a flat vector, with p = inf meaning max-norm.

    Raises InvalidInputError on non-finite entries or p < 1.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("p_norm: vector has non-finite entries")
    if p < 1.0:
        raise InvalidInputError(f"p_norm: p must be >= 1, got {p}")
    if v.size == 0:
        return 0.0
    a = np.abs(v)
    if math.isinf(p):
        return float(a.max())
    # Rescale by the max, so no power overflows.
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return float(m * np.power(np.power(a / m, p).sum(), 1.0 / p))


def dual_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, for p strictly inside (1, inf)."""
    if not 1.0 < p < math.inf:
        raise InvalidInputError(f"dual_exponent: p must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def sample_batches(
    n: int,
    b: int,
    T: int,
    seed: int,
    epoch_shuffled: bool = False,
) -> np.ndarray:
    """The batch schedule of T steps: a (T, b) int64 array whose row t is
    the sorted, distinct indices into 0..n-1 of step t's batch.

    Default mode draws each step independently without replacement within
    the step (plain SGD), on the stream of one
    ``rng.choice(n, size=b, replace=False)`` call per step. epoch_shuffled
    instead walks seeded permutations of the full index range, reshuffling
    at each epoch boundary. The schedule is a pure function of the
    arguments.

    For b <= _FLOYD_MAX_BATCH the default mode makes the per-step choice
    calls' draws in one ``rng.integers`` call per chunk of steps. Below
    numpy's tail-shuffle cut-off (n > 10000 and b > n // 50, which needs
    b > 200), choice runs Floyd's algorithm (Bentley & Floyd, CACM 1987),
    draw j in 0..j for j = n-b .. n-1, then shuffles the b picks with
    draws in 0..i for i = b-1 .. 1. Each draw is a Lemire-bounded draw
    (Lemire, ACM TOMACS 2019), the one ``integers(0, bound,
    endpoint=True)`` makes, so one call over every step's 2b-1 bounds, in
    order, consumes the stream choice does. The shuffle's draws are
    dropped, since each row is sorted. Floyd's slot k keeps its draw
    unless an earlier slot of its step holds it, and then takes n-b+k;
    _resolve_floyd settles slot k for every step of the chunk in one
    vectorized round.

    The rounds cost O(b^2) per step, so above the cut the per-step choice
    call is faster. Time of this path over the loop's, 300 steps (timeit,
    minimum of 5 x 5 calls, four runs, 2-vCPU x86-64 host): b = 16
    0.08-0.15, 32 0.17-0.20, 64 0.30-0.57, 128 1.18-1.21, 256 2.97-3.03.
    A chunk holds at most _DRAW_BUDGET draws, so the draw path's arrays
    stay below 2 MiB whatever T is.
    """
    if n < 1 or b < 1 or T < 1:
        raise ConfigError(f"sample_batches: need n,b,T >= 1, got n={n} b={b} T={T}")
    if b > n:
        raise ConfigError(f"sample_batches: batch size {b} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    steps = np.empty((T, b), dtype=np.int64)
    if epoch_shuffled:
        queue = np.empty(0, dtype=np.int64)
        for t in range(T):
            if queue.size < b:
                # Epoch boundary: the next permutation tops the leftovers up
                # with points they do not hold; the points it skips stay queued.
                fresh = rng.permutation(n)
                fill = np.flatnonzero(~np.isin(fresh, queue))[: b - queue.size]
                queue = np.concatenate([queue, fresh[fill], np.delete(fresh, fill)])
            steps[t] = np.sort(queue[:b])
            queue = queue[b:]
    elif b == n:
        steps[:] = np.arange(n)
    elif b > _FLOYD_MAX_BATCH:
        for t in range(T):
            steps[t] = np.sort(rng.choice(n, size=b, replace=False))
    else:
        # Floyd's bounds n-b .. n-1, then the shuffle's b-1 .. 1, per step.
        bounds = np.concatenate([np.arange(n - b, n), np.arange(b - 1, 0, -1)])
        chunk = min(T, _DRAW_BUDGET // bounds.size)
        bounds = np.tile(bounds, (chunk, 1))
        for first in range(0, T, chunk):
            rows = min(chunk, T - first)
            draws = rng.integers(0, bounds[:rows], endpoint=True)
            block = steps[first : first + rows]
            block[:] = _resolve_floyd(draws[:, :b].T.copy(), n).T
            block.sort(axis=1)
    return steps


# Largest batch drawn by _resolve_floyd's rounds; larger ones call choice per step.
_FLOYD_MAX_BATCH = 64
# Most draws one rng.integers call of sample_batches makes.
_DRAW_BUDGET = 1 << 16


def _resolve_floyd(picks: np.ndarray, n: int) -> np.ndarray:
    """Floyd's picks, in place, for a (b, steps) array of each step's draws
    (column s the draws of step s, draw k in 0..n-b+k): slot k keeps its
    draw unless an earlier slot of its step holds it, and then takes
    n-b+k, which no earlier slot can hold."""
    b = picks.shape[0]
    seen = np.empty(picks.shape, dtype=bool)
    hit = np.empty(picks.shape[1], dtype=bool)
    for k in range(1, b):
        np.equal(picks[:k], picks[k], out=seen[:k])
        np.logical_or.reduce(seen[:k], axis=0, out=hit)
        np.putmask(picks[k], hit, n - b + k)
    return picks


def _removal_set(n: int, removed, who: str) -> np.ndarray:
    """Sorted, validated train positions of a removal set (one index or several)."""
    S = np.sort(np.atleast_1d(np.asarray(removed)))
    if S.ndim != 1 or (S.size and not np.issubdtype(S.dtype, np.integer)):
        raise InvalidInputError(f"{who}: removal set must be integer indices")
    S = S.astype(np.int64)
    if S.size and not 0 <= S[0] <= S[-1] < n:
        raise InvalidInputError(f"{who}: index out of range 0..{n - 1}")
    if np.any(S[1:] == S[:-1]):
        raise InvalidInputError(f"{who}: removal set repeats an index")
    if S.size >= n:
        raise InvalidInputError(f"{who}: removing all {n} training points leaves none")
    return S
