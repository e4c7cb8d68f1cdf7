"""Ground-truth machinery the estimators are judged against.

loo_retrain_many is the package's one "retrain without these points":
one retrain per removal set, each a single training point (leave-one-out)
or several. A retrain replays the original batch schedule with the removed
points' slots resampled deterministically and keeps the 1/n per-example
weight, so at desk scale the removal's effect is not swamped by fresh
schedule noise. Every replica's schedule comes from one draw of the
original schedule, and replicas with the same batch size train together
as one stacked (R, P) SAM run, bitwise equal to training each on its own.
loo_retrain is its one-set case. The dense Hessian is assembled from
Hessian-vector products and only exists as an audit tool for small
parameter counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as mod
from .errors import InvalidInputError
from .influence import HVP_BLOCK, NeumannConfig, influence_scores
from .influence import compute_influence  # noqa: F401  re-exported; bench/ traces it here
from .numcore import sample_batches
from .samtrain import SAMConfig, train_sam, train_sam_many

Array = np.ndarray

DENSE_HESSIAN_MAX_P = 2000
# Replicas per stacked removal retrain. On the benchmark configs (2-vCPU
# x86-64, OpenBLAS) time per replica falls up to about 20 per block and is
# flat within noise from there to 64; a block's activations grow with it.
RETRAIN_BLOCK = 32


@dataclass
class CalibrationReport:
    pearson: float
    spearman: float
    sign_agreement: float
    n_points: int
    estimator: str


def _removal_set(n: int, removed, who: str) -> Array:
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


def _replayed_steps(base: Array, n: int, S: Array, config: SAMConfig) -> Array:
    """Steps (T, min(b, n-|S|)) of the base schedule (T, b) with the removal
    set S taken out, in original train positions, sorted within each step.

    Slots holding a removed index are resampled (seeded by config.seed and
    S) from the points neither in the batch nor in S, or dropped when there
    are none (full batch).
    """
    is_removed = np.zeros(n, dtype=bool)
    is_removed[S] = True
    T, b = base.shape
    if b == n:  # nothing to resample into: every step is the kept points
        return np.broadcast_to(np.flatnonzero(~is_removed), (T, n - S.size))
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, *S.tolist(), 0x10E])
    hit = is_removed[base]
    # Steps without a removed point stay as drawn. When b > n-|S|, every
    # step holds one and shrinks to n-|S|.
    steps = base.copy() if b <= n - S.size else np.empty((T, n - S.size), dtype=np.int64)
    for t in np.flatnonzero(hit.any(axis=1)):
        batch, free = base[t].copy(), ~is_removed
        free[batch] = False
        for slot in np.flatnonzero(hit[t]):
            candidates = np.flatnonzero(free)
            if not candidates.size:  # this slot and the later ones keep their index and are dropped
                break
            batch[slot] = rng.choice(candidates)
            free[batch[slot]] = False
        steps[t] = np.sort(batch[~is_removed[batch]])
    return steps


def loo_schedule(n: int, removed, config: SAMConfig) -> Array:
    """The original seeded schedule with the removal set S (one index or
    several) taken out, remapped onto 0..n-|S|-1 (see _replayed_steps)."""
    S = _removal_set(n, removed, "loo_schedule")
    base = sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled)
    steps = _replayed_steps(base, n, S, config)
    return steps - np.searchsorted(S, steps)


def drop_train_point(dataset: mod.Dataset, removed) -> mod.Dataset:
    """Dataset without the given *train-split* rows; other splits kept."""
    rows = dataset.indices("train")
    S = _removal_set(rows.size, removed, "drop_train_point")
    keep = np.ones(dataset.n, dtype=bool)
    keep[rows[S]] = False
    return mod.Dataset(dataset.features[keep], dataset.labels[keep], dataset.split[keep])


def loo_retrain_many(
    spec: mod.ModelSpec, dataset: mod.Dataset, removal_sets, config: SAMConfig
) -> Array:
    """Retrain once per removal set (one index or several each), replaying
    the original schedule with the set's slots resampled; row r of the
    (R, P) result is the run without removal_sets[r].

    Replicas with the same batch size min(b, n-|S|) train together as one
    stacked (R, P) run, RETRAIN_BLOCK at a time; each row is bitwise the
    run of its set on its own. Deterministic; a row does not depend on
    the order of its set.
    """
    n = int(dataset.indices("train").size)
    sets = [_removal_set(n, removed, "loo_retrain_many") for removed in removal_sets]
    base = sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled)
    init = mod.init_params(spec, config.seed)
    out = np.empty((len(sets), spec.param_count))
    groups: dict[int, list[int]] = {}
    for r, S in enumerate(sets):
        groups.setdefault(min(config.batch_size, n - S.size), []).append(r)
    for members in groups.values():
        for start in range(0, len(members), RETRAIN_BLOCK):
            block = members[start : start + RETRAIN_BLOCK]
            batches = np.stack([_replayed_steps(base, n, sets[r], config) for r in block], axis=1)
            # Keep the original per-example weight 1/n (data loss (n-|S|)/n of
            # a batch mean): the L2 term keeps its relative strength; only S changes.
            loss_scales = np.array([(n - sets[r].size) / n for r in block])
            labels = [f"retrain without training points {sets[r].tolist()}" for r in block]
            out[block] = train_sam_many(
                spec, dataset, config, batches, loss_scales, labels, np.tile(init, (len(block), 1))
            )
    return out


def loo_retrain(spec: mod.ModelSpec, dataset: mod.Dataset, removed, config: SAMConfig) -> Array:
    """Retrain with the given training points (one index or several)
    removed: loo_retrain_many with one set."""
    return loo_retrain_many(spec, dataset, [removed], config)[0]


def dense_hessian(
    spec: mod.ModelSpec,
    params: Array,
    dataset: mod.Dataset,
    lam: float = 0.0,
    indices=None,
    scale: float | None = None,
) -> Array:
    """Materialize scale * sum_i d2 loss_i + lam*I, HVP_BLOCK columns
    (block HVPs of unit vectors) at a time.

    Refuses parameter counts above the guard; this exists to audit the
    matrix-free operators, not to be a solver path.
    """
    P = spec.param_count
    if P > DENSE_HESSIAN_MAX_P:
        raise InvalidInputError(f"dense_hessian refused for P={P} > {DENSE_HESSIAN_MAX_P}")
    if indices is None:
        indices = dataset.indices("train")
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    if scale is None:
        scale = 1.0 / indices.size
    H = np.empty((P, P))
    for start in range(0, P, HVP_BLOCK):
        units = np.eye(min(HVP_BLOCK, P - start), P, k=start)  # e_start, e_start+1, ...
        H[:, start : start + len(units)] = mod.hvp(spec, params, dataset, indices, units, scale).T
    H[np.diag_indices(P)] += lam
    return H


def validation_loss(spec: mod.ModelSpec, params: Array, dataset: mod.Dataset) -> float:
    """Sum of per-example losses over the val split."""
    val_rows = dataset.indices("val")
    if val_rows.size == 0:
        raise InvalidInputError("dataset has no val split rows")
    X, y = mod._check_examples(spec, dataset.features[val_rows], dataset.labels[val_rows])
    return mod._batch_loss(spec, params, X, y)


def _sign_agreement(a: Array, b: Array) -> float:
    # Either side being exactly zero carries no directional information;
    # such pairs count half, so an all-zero estimator scores 0.5.
    sa, sb = np.sign(a), np.sign(b)
    credit = np.where((sa == 0) | (sb == 0), 0.5, (sa == sb).astype(float))
    return float(credit.mean())


def _pearson(a: Array, b: Array) -> float:
    """Pearson r of two non-constant vectors in scipy.stats.pearsonr's order
    of operations, so the value is bitwise scipy's: centre, scale each side
    by its max-abs before the 2-norm, dot, clip, round when n = 2."""

    def unit(v: Array) -> Array:
        centred = v - v.mean()
        vmax = np.max(np.abs(centred))
        scaled = centred / vmax
        return centred / (vmax * np.sqrt(np.sum(scaled * scaled)))

    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(np.dot(unit(a), unit(b)), -1.0, 1.0)
    return float(np.round(r) if a.size == 2 else r)


def _average_ranks(v: Array) -> Array:
    """1-based ranks of v, ties sharing their mean rank (scipy.stats.rankdata's
    method="average")."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, v.size])
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(a: Array, b: Array) -> float:
    """Spearman rho of two non-constant vectors, bitwise scipy.stats.spearmanr's:
    the correlation matrix of the two average-rank rows."""
    return float(np.corrcoef(np.vstack((_average_ranks(a), _average_ranks(b))))[1, 0])


def _corr_or_zero(a: Array, b: Array, ranked: bool = False) -> float:
    """Pearson (ranked: Spearman) correlation of a and b, or 0.0 where it is
    undefined: fewer than two points, a constant side, any NaN, or a
    non-finite result (an infinite score leaves Pearson undefined; its
    rank still counts for Spearman)."""
    if len(a) < 2 or np.isnan(a).any() or np.isnan(b).any():
        return 0.0
    if (a == a[0]).all() or (b == b[0]).all():
        return 0.0
    r = _spearman(a, b) if ranked else _pearson(a, b)
    return r if np.isfinite(r) else 0.0


def calibrate_estimator(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    config: SAMConfig,
    estimator: str,
    sample_size: int,
    ncfg: NeumannConfig | None = None,
    gif_mode: str = "sgd",
) -> CalibrationReport:
    """Compare predicted influence scores against actual leave-one-out
    validation-loss changes for a seeded sample of training points."""
    n = int(dataset.indices("train").size)
    if not 1 <= sample_size <= n:
        raise InvalidInputError(f"sample_size must lie in 1..{n}, got {sample_size}")
    ncfg = ncfg or NeumannConfig()
    params, traj = train_sam(spec, dataset, config)
    base_val = validation_loss(spec, params, dataset)

    if sample_size == n:
        sample = np.arange(n)
    else:
        sample = np.sort(
            np.random.default_rng(config.seed).choice(n, size=sample_size, replace=False)
        )
    # Same orientation as influence_score: positive = removal hurts.
    _, gval = mod.subset_loss_grad(spec, params, dataset, dataset.indices("val"), 1.0)
    predicted = influence_scores(estimator, spec, dataset, params, config.rho, config.p,
                                 config.lam, ncfg, sample, traj, gif_mode, gval[None])[:, 0]
    retrained = loo_retrain_many(spec, dataset, sample, config)
    # Removal-induced loss change: positive means removal hurt.
    actual = np.array([validation_loss(spec, w_k, dataset) - base_val for w_k in retrained])
    return CalibrationReport(
        pearson=_corr_or_zero(predicted, actual),
        spearman=_corr_or_zero(predicted, actual, ranked=True),
        sign_agreement=_sign_agreement(predicted, actual),
        n_points=int(sample.size),
        estimator=estimator,
    )
