"""SAM training loop with dual-norm worst-case perturbations and
trajectory recording.

The optimizer follows the standard two-step scheme: compute the batch
gradient, step to the worst-case point inside the rho-ball (closed-form
dual-norm ascent direction), take the gradient there, descend. The
ascent direction's derivative w.r.t. the parameters is dropped, as in
the standard practical algorithm. L2 regularization applies only to the
outer descent gradient.

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
from .numcore import BatchSchedule, dual_exponent, p_norm, sample_batches

Array = np.ndarray

TRAJ_MAGIC = b"SAMT"
TRAJ_VERSION = 1


@dataclass(frozen=True)
class SAMConfig:
    rho: float = 0.05
    p: float = 2.0
    lam: float = 0.0
    eta: float | tuple[tuple[int, float], ...] = 0.1  # constant or step-decay
    batch_size: int = 32
    steps: int = 100
    seed: int = 0
    record_stride: int = 1
    epoch_shuffled: bool = False

    def __post_init__(self):
        if self.rho < 0.0:
            raise ConfigError("rho must be >= 0")
        if self.lam < 0.0:
            raise ConfigError("lambda must be >= 0")
        if self.batch_size < 1 or self.steps < 1 or self.record_stride < 1:
            raise ConfigError("batch_size, steps, record_stride must be >= 1")
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
                self.record_stride,
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
    # trainer fills these in; they are not part of the file format, so a
    # trajectory loaded from disk needs them set by the caller.
    rho: float | None = None
    p: float | None = None

    @property
    def final_params(self) -> Array:
        return self.checkpoints[-1].params


def worst_perturbation(grad: Array, rho: float, p: float) -> Array:
    """Closed-form ascent direction on the boundary of the rho-ball.

    epsilon = rho * sign(g) * |g|^(q-1) / (||g||_q^q)^(1/p) with the dual
    exponent q. Zero gradient or rho = 0 returns the zero vector.
    """
    g = np.asarray(grad, dtype=np.float64)
    if rho < 0.0:
        raise InvalidInputError("rho must be >= 0")
    if rho == 0.0 or not np.any(g):
        return np.zeros_like(g)
    if p == 2.0:
        return rho * g / p_norm(g, 2.0)
    q = dual_exponent(p)
    a = np.abs(g)
    m = a.max()
    a = a / m  # rescale; the formula is scale-invariant in g
    num = np.sign(g) * np.power(a, q - 1.0)
    denom = np.power(np.power(a, q).sum(), 1.0 / p)
    return rho * num / denom


def sam_perturbation(
    spec: mod.ModelSpec, params: Array, dataset: mod.Dataset, rows, scale: float,
    rho: float, p: float,
) -> tuple[float, Array]:
    """First half of a SAM step: the loss of the given rows at params
    (weighted by scale) and the worst-case perturbation of that loss."""
    loss, g = mod.subset_loss_grad(spec, params, dataset, rows, scale)
    return loss, worst_perturbation(g, rho, p)


def train_sam(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    config: SAMConfig,
    schedule: BatchSchedule | None = None,
    init: Array | None = None,
    loss_scale: float = 1.0,
) -> tuple[Array, Trajectory]:
    """Run T SAM steps over the dataset's train split.

    Batch indices are positions within the train split (0..n_train-1).
    A custom schedule overrides the seeded default; the leave-one-out
    oracle uses this to replay a run with one point's slots resampled.
    loss_scale multiplies the batch-mean data loss; the oracle passes
    (n-1)/n so that removal keeps the original per-example weight 1/n
    instead of silently re-normalizing against the L2 penalty.
    """
    train_rows = dataset.indices("train")
    n = int(train_rows.size)
    if n == 0:
        raise ConfigError("dataset has no train split rows")
    if config.batch_size > n:
        raise ConfigError(f"batch size {config.batch_size} exceeds train size {n}")
    if schedule is None:
        schedule = sample_batches(
            n, config.batch_size, config.steps, config.seed, config.epoch_shuffled
        )
    if schedule.num_steps < config.steps:
        raise ConfigError("batch schedule shorter than the configured step count")

    w = init.astype(np.float64).copy() if init is not None else mod.init_params(spec, config.seed)
    traj = Trajectory(
        param_count=spec.param_count,
        n_train=n,
        total_steps=config.steps,
        config_digest=config.digest(),
        rho=config.rho,
        p=config.p,
    )
    for t in range(config.steps):
        batch = schedule.steps[t]
        eta = config.eta_at(t)
        scale = loss_scale / batch.size
        rows = train_rows[batch]
        loss, eps = sam_perturbation(spec, w, dataset, rows, scale, config.rho, config.p)
        if not math.isfinite(loss) or loss > 1e6:
            raise DivergenceError(f"training diverged at step {t} (batch loss {loss})")
        _, g_pert = mod.subset_loss_grad(spec, w + eps, dataset, rows, scale)
        g_sam = g_pert + config.lam * w
        if t % config.record_stride == 0:
            traj.checkpoints.append(
                Checkpoint(step=t, params=w.copy(), eta=eta, batch=batch.copy(), weight=eta * scale)
            )
        w = w - eta * g_sam
    if not np.all(np.isfinite(w)):
        raise DivergenceError(f"training diverged at step {config.steps} (non-finite weights)")
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
    """Binary trajectory file: magic, version, header, checkpoint records."""
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<H", TRAJ_VERSION))
        f.write(struct.pack("<QQQ", traj.param_count, traj.n_train, traj.total_steps))
        f.write(traj.config_digest)
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
    if version != TRAJ_VERSION:
        raise FormatError(f"unsupported trajectory version {version}")
    P, n, T = struct.unpack("<QQQ", take(24, "header"))
    digest = take(32, "config digest")
    traj = Trajectory(param_count=P, n_train=n, total_steps=T, config_digest=digest)
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
