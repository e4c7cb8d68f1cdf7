"""SAM training loop with dual-norm worst-case perturbations and
trajectory recording.

The optimizer follows the standard two-step scheme: compute the batch
gradient, step to the worst-case point inside the rho-ball (closed-form
dual-norm ascent direction), take the gradient there, descend. The
ascent direction's derivative w.r.t. the parameters is dropped, as in
the standard practical algorithm. L2 regularization applies only to the
outer descent gradient. The one step loop trains R replicas at once as an
(R, P) block; a single run is its R = 1 case.

Checkpoints record the parameters *before* each update together with
the batch and the effective per-example coefficient eta_t / b actually
applied, which is what the trajectory-based influence estimator needs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import model as mod
from .errors import ConfigError, DivergenceError, FormatError, InvalidInputError
from .numcore import dual_exponent, p_norm, sample_batches

Array = np.ndarray

TRAJ_MAGIC = b"SAMT"
TRAJ_VERSION = 2  # version 1 files, without rho and p, still load


@dataclass(frozen=True)
class SAMConfig:
    rho: float = 0.05
    p: float = 2.0
    lam: float = 0.0
    eta: float | tuple[tuple[int, float], ...] = 0.1  # constant or step-decay
    batch_size: int = 32
    steps: int = 100
    seed: int = 0
    epoch_shuffled: bool = False

    def __post_init__(self):
        if self.rho < 0.0:
            raise ConfigError("rho must be >= 0")
        if self.lam < 0.0:
            raise ConfigError("lambda must be >= 0")
        if self.batch_size < 1 or self.steps < 1:
            raise ConfigError("batch_size, steps must be >= 1")
        if isinstance(self.eta, (int, float)):
            if self.eta <= 0.0:
                raise ConfigError("eta must be > 0")
        else:
            sched = tuple((int(t), float(e)) for t, e in self.eta)
            if not sched or sched[0][0] != 0 or any(e <= 0.0 for _, e in sched):
                raise ConfigError("step-decay schedule must start at step 0 with eta > 0")
            if any(sched[i][0] >= sched[i + 1][0] for i in range(len(sched) - 1)):
                raise ConfigError("step-decay schedule steps must increase")
            object.__setattr__(self, "eta", sched)

    def eta_at(self, t: int) -> float:
        if isinstance(self.eta, (int, float)):
            return float(self.eta)
        value = self.eta[0][1]
        for start, e in self.eta:
            if t >= start:
                value = e
        return value

    def digest(self) -> bytes:
        text = "|".join(
            str(x)
            for x in (
                self.rho,
                self.p,
                self.lam,
                self.eta,
                self.batch_size,
                self.steps,
                self.seed,
                self.epoch_shuffled,
            )
        )
        return hashlib.sha256(text.encode()).digest()


@dataclass
class Checkpoint:
    step: int
    params: Array
    eta: float
    batch: Array  # train-split positions used at this step; empty for the final state
    weight: float  # eta * per-example loss scale (eta_t / b)


@dataclass
class Trajectory:
    checkpoints: list[Checkpoint] = field(default_factory=list)
    param_count: int = 0
    n_train: int = 0
    total_steps: int = 0
    config_digest: bytes = b"\x00" * 32
    # SAM settings needed to recompute perturbations at checkpoints. The
    # trainer fills these in and version 2 files store them; a trajectory
    # read from a version 1 file needs them set by the caller.
    rho: float | None = None
    p: float | None = None

    @property
    def final_params(self) -> Array:
        return self.checkpoints[-1].params


def worst_perturbation(grad: Array, rho: float, p: float) -> Array:
    """Closed-form ascent direction on the boundary of the rho-ball.

    epsilon = rho * sign(g) * |g|^(q-1) / (||g||_q^q)^(1/p) with the dual
    exponent q. grad is one gradient (P,) or a stack of rows (R, P), each
    perturbed on its own ball. A zero gradient row or rho = 0 gives zeros.
    """
    g = np.asarray(grad, dtype=np.float64)
    if rho < 0.0:
        raise InvalidInputError("rho must be >= 0")
    G = g.reshape(-1, g.shape[-1])
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("worst_perturbation: gradient has non-finite entries")
    live = G.any(axis=1)
    if rho == 0.0 or not live.all():
        eps = np.zeros_like(G)
        if rho > 0.0 and live.any():
            eps[live] = worst_perturbation(G[live], rho, p)
        return eps.reshape(g.shape)
    if p == 2.0:
        # Per-row dot products through matmul, bit for bit np.dot(g, g).
        eps = rho * G / np.sqrt(G[:, None, :] @ G[:, :, None])[:, 0]
    else:
        q = dual_exponent(p)
        a = np.abs(G)
        a = a / a.max(axis=1, keepdims=True)  # rescale; the formula is scale-invariant in g
        num = np.sign(G) * np.power(a, q - 1.0)
        denom = np.power(np.power(a, q).sum(axis=1, keepdims=True), 1.0 / p)
        eps = rho * num / denom
    return eps.reshape(g.shape)


def sam_perturbation(
    spec: mod.ModelSpec, params: Array, dataset: mod.Dataset, rows, scale: float,
    rho: float, p: float,
) -> tuple[float, Array]:
    """First half of a SAM step: the loss of the given rows at params
    (weighted by scale) and the worst-case perturbation of that loss."""
    loss, g = mod.subset_loss_grad(spec, params, dataset, rows, scale)
    return loss, worst_perturbation(g, rho, p)


def train_sam_many(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    config: SAMConfig,
    batches,
    loss_scales: Array,
    labels: list[str],
    init: Array,
    record=None,
) -> Array:
    """The SAM step loop, run for R replicas at once as one (R, P) block.

    batches[t] is an (R, b) array of train-split positions: replica r's
    batch at step t. Replica r starts from init[r], weights its batch-mean
    data loss by loss_scales[r] and is named labels[r] if it diverges.
    Every replica row is bitwise what a run of its own would give.
    record(t, eta, scale, W), if given, is called before each update.
    """
    train_rows = dataset.indices("train")
    X_train, y_train = mod._check_examples(
        spec, dataset.features[train_rows], dataset.labels[train_rows]
    )
    W = np.array(init, dtype=np.float64, ndmin=2)
    if W.shape != (len(labels), spec.param_count) or len(loss_scales) != len(labels):
        raise InvalidInputError(
            f"train_sam_many: need one {spec.param_count}-parameter init row, loss scale and "
            f"label per replica, got init {W.shape} for {len(labels)} labels"
        )
    for t in range(config.steps):
        batch = batches[t]
        eta = config.eta_at(t)
        scale = loss_scales / batch.shape[1]
        X, y = X_train[batch], y_train[batch]
        loss, G = mod.stacked_loss_grad(spec, W, X, y)
        loss, G = scale * loss, scale[:, None] * G
        bad = ~np.isfinite(loss) | (loss > 1e6)
        if bad.any():
            r = int(np.argmax(bad))
            raise DivergenceError(f"{labels[r]} diverged at step {t} (batch loss {float(loss[r])})")
        eps = worst_perturbation(G, config.rho, config.p)
        _, G_pert = mod.stacked_loss_grad(spec, W + eps, X, y)
        G_sam = scale[:, None] * G_pert + config.lam * W
        if record is not None:
            record(t, eta, scale, W)
        W = W - eta * G_sam
    bad = ~np.all(np.isfinite(W), axis=1)
    if bad.any():
        label = labels[int(np.argmax(bad))]
        raise DivergenceError(f"{label} diverged at step {config.steps} (non-finite weights)")
    return W


def train_sam(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    config: SAMConfig,
    schedule: Array | None = None,
) -> tuple[Array, Trajectory]:
    """Run T SAM steps over the dataset's train split (train_sam_many with
    one replica) and record the trajectory, one checkpoint per step.

    schedule is a (T, b) array of positions within the train split
    (0..n_train-1), row t the batch of step t; the default is the seeded
    sample_batches schedule of the config.
    """
    n = int(dataset.indices("train").size)
    if n == 0:
        raise ConfigError("dataset has no train split rows")
    if config.batch_size > n:
        raise ConfigError(f"batch size {config.batch_size} exceeds train size {n}")
    if schedule is None:
        schedule = sample_batches(
            n, config.batch_size, config.steps, config.seed, config.epoch_shuffled
        )
    schedule = np.asarray(schedule)
    if schedule.ndim != 2 or not np.issubdtype(schedule.dtype, np.integer):
        raise InvalidInputError("train_sam: schedule must be a 2-D integer array (steps, batch)")
    if schedule.size and not 0 <= schedule.min() <= schedule.max() < n:
        raise InvalidInputError(f"train_sam: schedule entry out of range 0..{n - 1}")
    if len(schedule) < config.steps:
        raise ConfigError("batch schedule shorter than the configured step count")

    traj = Trajectory(
        param_count=spec.param_count,
        n_train=n,
        total_steps=config.steps,
        config_digest=config.digest(),
        rho=config.rho,
        p=config.p,
    )

    def record(t, eta, scale, W):
        traj.checkpoints.append(Checkpoint(
            step=t, params=W[0].copy(), eta=eta, batch=schedule[t].copy(),
            weight=eta * float(scale[0]),
        ))

    w = train_sam_many(
        spec, dataset, config, schedule[:, None], np.ones(1), ["training"],
        mod.init_params(spec, config.seed), record,
    )[0]
    traj.checkpoints.append(
        Checkpoint(
            step=config.steps,
            params=w.copy(),
            eta=0.0,
            batch=np.empty(0, dtype=np.int64),
            weight=0.0,
        )
    )
    return w, traj


def stationarity_report(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, config: SAMConfig
) -> dict[str, float]:
    """Norms of the perturbed full-train gradient with and without the
    L2 term; both are reported because they vanish together only at lam=0."""
    rows = dataset.indices("train")
    scale = 1.0 / rows.size
    _, eps = sam_perturbation(spec, params, dataset, rows, scale, config.rho, config.p)
    _, g_pert = mod.subset_loss_grad(spec, params + eps, dataset, rows, scale)
    return {
        "grad_norm": p_norm(g_pert, 2.0),
        "grad_plus_l2_norm": p_norm(g_pert + config.lam * params, 2.0),
    }


def write_trajectory(traj: Trajectory, path) -> None:
    """Binary trajectory file: magic, version, header (sizes, config
    digest, then rho and p, NaN where unset), checkpoint records."""
    settings = [math.nan if v is None else v for v in (traj.rho, traj.p)]
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<H", TRAJ_VERSION))
        f.write(struct.pack("<QQQ", traj.param_count, traj.n_train, traj.total_steps))
        f.write(traj.config_digest)
        f.write(struct.pack("<dd", *settings))
        for ck in traj.checkpoints:
            f.write(struct.pack("<Qdd", ck.step, ck.eta, ck.weight))
            f.write(struct.pack("<I", ck.batch.size))
            f.write(ck.batch.astype("<u4").tobytes())
            f.write(ck.params.astype("<f8").tobytes())


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as f:
        data = f.read()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"trajectory file truncated while reading {what}")
        chunk = data[off : off + n]
        off += n
        return chunk

    off = 0
    if take(4, "magic") != TRAJ_MAGIC:
        raise FormatError("bad magic bytes; not a trajectory file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version not in (1, TRAJ_VERSION):
        raise FormatError(f"unsupported trajectory version {version}")
    P, n, T = struct.unpack("<QQQ", take(24, "header"))
    digest = take(32, "config digest")
    traj = Trajectory(param_count=P, n_train=n, total_steps=T, config_digest=digest)
    if version >= 2:
        settings = struct.unpack("<dd", take(16, "SAM settings"))
        traj.rho, traj.p = (None if math.isnan(v) else v for v in settings)
    while off < len(data):
        step, eta, weight = struct.unpack("<Qdd", take(24, "checkpoint header"))
        (count,) = struct.unpack("<I", take(4, "batch count"))
        batch = np.frombuffer(take(4 * count, "batch indices"), dtype="<u4").astype(np.int64)
        if np.any(batch >= n):
            raise FormatError(f"checkpoint {step}: batch index out of range")
        params = np.frombuffer(take(8 * P, "checkpoint params"), dtype="<f8").copy()
        traj.checkpoints.append(
            Checkpoint(step=int(step), params=params, eta=eta, batch=batch, weight=weight)
        )
    if not traj.checkpoints:
        raise FormatError("trajectory file contains no checkpoints")
    return traj
