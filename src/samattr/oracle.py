"""Ground-truth machinery the estimators are judged against.

loo_retrain_many is the package's one "retrain without these points":
one retrain per removal set, each a single training point (leave-one-out)
or several. A retrain replays the original batch schedule with the removed
points' slots resampled deterministically and keeps the 1/n per-example
weight, so at desk scale the removal's effect is not swamped by fresh
schedule noise. Every replica's schedule comes from one draw of the
original schedule, and replicas with the same batch size train together
as one stacked (R, P) SAM run, bitwise equal to training each on its own.
The empty set's replica is the trained model itself. A sweep of R sets
that may use W processes cuts blocks of at most
min(RETRAIN_BLOCK, ceil(R / W)) replicas, each batch-size group into
equal blocks (41 replicas on 2 CPUs: 21 + 20; 17 replicas: 9 + 8), and
on Linux the blocks are spread over min(W, blocks) processes: the caller
trains its share and forked children train the rest. A one-set sweep, a
caller with other Python threads, or any other platform trains in the
calling process alone. loo_retrain is the one-set case, and
calibrate_estimator trains its model as the empty set of its one sweep.
The dense Hessian is assembled from Hessian-vector products and only
exists as an audit tool for small parameter counts.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import model as mod
from .errors import InvalidInputError
from .influence import HVP_BLOCK, NeumannConfig, influence_scores
from .influence import compute_influence  # noqa: F401  re-exported; bench/ traces it here
from .numcore import sample_batches
from .samtrain import SAMConfig, recorded_trajectory, train_sam_many, train_split_size
from .samtrain import train_sam  # noqa: F401  re-exported; bench/ traces it here

Array = np.ndarray

DENSE_HESSIAN_MAX_P = 2000
# Most replicas per stacked removal retrain. A sweep of R replicas over W
# processes cuts each batch-size group into equal blocks of at most
# min(RETRAIN_BLOCK, ceil(R / W)), so a short sweep still fills every
# process (see loo_retrain_many and _train_blocks).
# On the benchmark configs (2-vCPU x86-64, OpenBLAS) time per replica falls
# up to about 20 per block and is flat within noise from there to 64; a
# block's activations grow with it.
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


def loo_retrain_many(
    spec: mod.ModelSpec, dataset: mod.Dataset, removal_sets, config: SAMConfig,
    record: Array | None = None,
) -> Array:
    """Retrain once per removal set (one index or several each), replaying
    the original schedule with the set's slots resampled; row r of the
    (R, P) result is the run without removal_sets[r]. The empty set's row
    is the trained model, and its replica diverges as "training".

    Replicas with the same batch size min(b, n-|S|) train together as
    stacked (R, P) runs. With W processes allowed (_workers), each group
    of R_g replicas is cut into ceil(R_g / size) equal blocks, size =
    min(RETRAIN_BLOCK, ceil(R / W)), and the blocks are spread over
    processes (_train_blocks); each row is bitwise the run of its set on
    its own. Deterministic; a row does not depend on the order of its set,
    its block or the number of CPUs.

    record, if given, is the (T+1, P) array train_sam_many fills with the
    run of removal_sets[0]: it goes only to block 0, whose row 0 that set
    is and which the calling process trains.
    """
    n = train_split_size(dataset, config)
    sets = [_removal_set(n, removed, "loo_retrain_many") for removed in removal_sets]
    base = sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled)
    groups: dict[int, list[int]] = {}
    for r, S in enumerate(sets):
        groups.setdefault(min(config.batch_size, n - S.size), []).append(r)
    workers = _workers()
    size = min(RETRAIN_BLOCK, -(-len(sets) // workers))
    blocks = [
        block
        for members in groups.values()
        for block in np.array_split(members, -(-len(members) // size))
    ]

    def train(block: Array) -> Array:
        batches = np.stack([_replayed_steps(base, n, sets[r], config) for r in block], axis=1)
        # Keep the original per-example weight 1/n (data loss (n-|S|)/n of
        # a batch mean): the L2 term keeps its relative strength; only S changes.
        loss_scales = np.array([(n - sets[r].size) / n for r in block])
        labels = [
            f"retrain without training points {sets[r].tolist()}" if sets[r].size else "training"
            for r in block
        ]
        return train_sam_many(
            spec, dataset, config, batches, loss_scales, labels, record if block[0] == 0 else None
        )

    out = np.empty((len(sets), spec.param_count))
    for block, rows in zip(blocks, _train_blocks(train, blocks, workers)):
        out[block] = rows
    return out


def _cpu_count() -> int:
    """CPUs in this process's affinity mask (a cgroup CPU quota is not seen)."""
    return len(os.sched_getaffinity(0))


def _workers() -> int:
    """Processes a retrain sweep may use: the CPUs in the affinity mask on
    Linux while the caller runs no other Python thread, else 1 (see
    _train_blocks)."""
    forkable = sys.platform == "linux" and threading.active_count() == 1
    return _cpu_count() if forkable else 1


def _train_share(train, blocks: list, share: range) -> tuple:
    """train(blocks[i]) for each i of share in order: (None, rows of each
    block), or (i, exception) for the first block i that fails."""
    done = []
    for i in share:
        try:
            done.append(train(blocks[i]))
        except Exception as exc:
            return i, exc
    return None, done


def _train_blocks(train, blocks: list, workers: int) -> list[Array]:
    """train(block) for every block, spread over min(workers, blocks)
    processes.

    Process k trains blocks k, k + workers, ...; the caller is process 0,
    so it trains block 0, and each other share runs in a child made by a
    bare os.fork that pickles its outcome through a pipe and exits. The
    error of the lowest-numbered failing block is raised, as in one
    process. Children still running when the caller unwinds are killed and
    reaped; a child that hangs is waited for without a time limit.

    _workers allows more than one process only on Linux, where forking was
    measured (pthread OpenBLAS, which shuts its thread pool down across a
    fork), and only while the caller runs no other Python thread, whose
    held locks a child would inherit; otherwise every block trains in the
    calling process. A BLAS that is unsafe after fork (libgomp-built
    OpenBLAS, MKL) can still deadlock a child. From Python 3.12 a fork
    with BLAS threads running emits a DeprecationWarning.
    """
    workers = max(1, min(workers, len(blocks)))
    shares = [range(k, len(blocks), workers) for k in range(workers)]
    running, pipes = [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: send the share's outcome, exit without unwinding
                status = 1
                try:
                    data = pickle.dumps(_train_share(train, blocks, share))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            running.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
            os.close(write_fd)
        outcomes = [_train_share(train, blocks, shares[0])]
        for pid, pipe in zip(list(running), pipes):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code != 0:  # a child exits 0 only once it has sent its whole outcome
                raise ChildProcessError(
                    f"retrain worker {pid} ended without sending its rows (exit code {code})"
                )
            outcomes.append(pickle.loads(data))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [(i, exc) for i, exc in outcomes if i is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = {}
    for share, (_, done) in zip(shares, outcomes):
        rows.update(zip(share, done))
    return [rows[i] for i in range(len(blocks))]


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
    if indices.size == 0:
        raise InvalidInputError("dense_hessian: the index set is empty")
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
    validation-loss changes for a seeded sample of training points.

    One loo_retrain_many sweep of the empty set and the sample trains both
    the model and its retrains. The empty set's block records the model's
    trajectory in the calling process, bitwise train_sam's, so every
    estimator (gif included) scores from the same sweep.
    """
    n = int(dataset.indices("train").size)
    if not 1 <= sample_size <= n:
        raise InvalidInputError(f"sample_size must lie in 1..{n}, got {sample_size}")
    if dataset.indices("val").size == 0:  # checked before the sweep, not after it
        raise InvalidInputError("dataset has no val split rows")
    ncfg = ncfg or NeumannConfig()
    if sample_size == n:
        sample = np.arange(n)
    else:
        sample = np.sort(
            np.random.default_rng(config.seed).choice(n, size=sample_size, replace=False)
        )
    recorded = np.empty((config.steps + 1, spec.param_count))
    swept = loo_retrain_many(spec, dataset, [[], *sample], config, recorded)
    params, retrained = swept[0], swept[1:]
    traj = recorded_trajectory(
        recorded,
        sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled),
        n,
        config,
    )
    base_val = validation_loss(spec, params, dataset)
    # Same orientation as influence_score: positive = removal hurts.
    _, gval = mod.subset_loss_grad(spec, params, dataset, dataset.indices("val"), 1.0)
    predicted = influence_scores(estimator, spec, dataset, params, config.rho, config.p,
                                 config.lam, ncfg, sample, traj, gif_mode, gval[None])[:, 0]
    # Removal-induced loss change: positive means removal hurt.
    actual = np.array([validation_loss(spec, w_k, dataset) - base_val for w_k in retrained])
    return CalibrationReport(
        pearson=_corr_or_zero(predicted, actual),
        spearman=_corr_or_zero(predicted, actual, ranked=True),
        sign_agreement=_sign_agreement(predicted, actual),
        n_points=int(sample.size),
        estimator=estimator,
    )
