"""Ground-truth machinery the estimators are judged against.

Leave-one-out retraining replays the original run's batch schedule with
the removed point's slots resampled deterministically, so at desk scale
the single-point effect is not swamped by fresh schedule noise. The
dense Hessian is assembled column-by-column from Hessian-vector
products and only exists as an audit tool for small parameter counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np
from scipy import stats

from . import model as mod
from .errors import InvalidInputError
from .influence import HVP_BLOCK, NeumannConfig, influence_vectors
from .influence import compute_influence  # noqa: F401  re-exported; bench/ traces it here
from .numcore import BatchSchedule, sample_batches
from .samtrain import SAMConfig, train_sam

Array = np.ndarray

DENSE_HESSIAN_MAX_P = 2000


@dataclass
class CalibrationReport:
    pearson: float
    spearman: float
    sign_agreement: float
    n_points: int
    estimator: str


def loo_schedule(n: int, k: int, config: SAMConfig) -> BatchSchedule:
    """The original seeded schedule with index k removed.

    Slots holding k are resampled (seeded by config.seed and k) from the
    points outside the batch; for full-batch steps the slot is dropped
    instead. Indices are then remapped onto the reduced range 0..n-2.
    """
    if not 0 <= k < n:
        raise InvalidInputError(f"loo_schedule: index {k} out of range")
    base = sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled)
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, k, 0x10E])
    steps = []
    for batch in base.steps:
        batch = batch.copy()
        if k in batch:
            if batch.size == n:
                batch = batch[batch != k]
            else:
                forbidden = set(batch.tolist())
                candidates = np.asarray(
                    [i for i in range(n) if i not in forbidden], dtype=np.int64
                )
                batch[batch == k] = rng.choice(candidates)
        batch = np.where(batch > k, batch - 1, batch)
        steps.append(np.sort(batch))
    b_new = min(config.batch_size, n - 1)
    return BatchSchedule(steps=steps, batch_size=b_new, seed=config.seed)


def drop_train_point(dataset: mod.Dataset, k: int) -> mod.Dataset:
    """Dataset with the k-th *train-split* row removed; other splits kept."""
    rows = dataset.indices("train")
    if not 0 <= k < rows.size:
        raise InvalidInputError(f"drop_train_point: index {k} out of range")
    keep = np.ones(dataset.n, dtype=bool)
    keep[rows[k]] = False
    return mod.Dataset(
        features=dataset.features[keep],
        labels=dataset.labels[keep],
        split=dataset.split[keep],
    )


def loo_retrain(
    spec: mod.ModelSpec, dataset: mod.Dataset, k: int, config: SAMConfig
) -> Array:
    """Retrain with the k-th training point removed, replaying the
    original schedule with k's slots resampled. Deterministic."""
    rows = dataset.indices("train")
    n = int(rows.size)
    if n < 2:
        raise InvalidInputError("loo_retrain needs at least two training points")
    schedule = loo_schedule(n, k, config)
    reduced = drop_train_point(dataset, k)
    cfg = dc_replace(config, batch_size=schedule.batch_size)
    # Keep the original per-example weight 1/n: the reduced run's data
    # loss is (n-1)/n of a batch mean, so the L2 term keeps its relative
    # strength and the only change is the removed point itself.
    params, _ = train_sam(spec, reduced, cfg, schedule=schedule, loss_scale=(n - 1) / n)
    return params


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
    loss, _ = mod.subset_loss_grad(spec, params, dataset, val_rows, 1.0)
    return loss


def _sign_agreement(a: Array, b: Array) -> float:
    # Either side being exactly zero carries no directional information;
    # such pairs count half, so an all-zero estimator scores 0.5.
    sa, sb = np.sign(a), np.sign(b)
    credit = np.where((sa == 0) | (sb == 0), 0.5, (sa == sb).astype(float))
    return float(credit.mean())


def _corr_or_zero(fn, a: Array, b: Array) -> float:
    if len(a) < 2 or np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    r = fn(a, b)[0]
    return float(r) if np.isfinite(r) else 0.0


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
    rows = dataset.indices("train")
    n = int(rows.size)
    if sample_size > n:
        raise InvalidInputError("sample_size exceeds number of training points")
    ncfg = ncfg or NeumannConfig()
    params, traj = train_sam(spec, dataset, config)
    base_val = validation_loss(spec, params, dataset)

    if sample_size == n:
        sample = np.arange(n)
    else:
        sample = np.sort(
            np.random.default_rng(config.seed).choice(n, size=sample_size, replace=False)
        )
    if callable(estimator):
        # Custom estimator hook: (spec, dataset, params, k) -> influence vector.
        ifvecs = np.stack([estimator(spec, dataset, params, int(k)) for k in sample])
        est_name = getattr(estimator, "__name__", "custom")
    else:
        ifvecs = influence_vectors(estimator, spec, dataset, params, config.rho, config.p,
                                   config.lam, ncfg, sample, traj, gif_mode)
        est_name = estimator
    # Same orientation as influence_score: positive = removal hurts.
    _, gval = mod.subset_loss_grad(spec, params, dataset, dataset.indices("val"), 1.0)
    predicted = -(ifvecs @ gval)
    actual = np.empty(sample.size)
    for j, k in enumerate(sample):
        w_k = loo_retrain(spec, dataset, int(k), config)
        # Removal-induced loss change: positive means removal hurt.
        actual[j] = validation_loss(spec, w_k, dataset) - base_val
    return CalibrationReport(
        pearson=_corr_or_zero(stats.pearsonr, predicted, actual),
        spearman=_corr_or_zero(stats.spearmanr, predicted, actual),
        sign_agreement=_sign_agreement(predicted, actual),
        n_points=int(sample.size),
        estimator=est_name,
    )
