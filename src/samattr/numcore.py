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
    the step (plain SGD). epoch_shuffled instead walks seeded permutations
    of the full index range, reshuffling at each epoch boundary. The
    schedule is a pure function of the arguments.
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
    else:
        for t in range(T):
            steps[t] = np.sort(rng.choice(n, size=b, replace=False))
    return steps


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
