"""SAM training loop with dual-norm worst-case perturbations and
trajectory recording.

The optimizer follows the standard two-step scheme: compute the batch
gradient, step to the worst-case point inside the rho-ball (closed-form
dual-norm ascent direction), take the gradient there, descend. The
ascent direction's derivative w.r.t. the parameters is dropped, as in
the standard practical algorithm. L2 regularization applies only to the
outer descent gradient. The one step loop trains R replicas at once as an
(R, P) block; a single run is its R = 1 case.

A run is recorded as step-indexed arrays: the parameters *before* each
update and the final ones, each update's batch, learning rate and applied
per-example coefficient eta_t / b, which the trajectory estimator needs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
class Trajectory:
    """A recorded SAM run of T updates with batch size b. Each step's batch
    lists distinct train-split positions 0..n_train-1."""

    params: Array  # (T+1, P): row t the parameters before update t, row T the final ones
    batches: Array  # (T, b) int64: update t's train-split positions
    etas: Array  # (T,) learning rate of update t
    weights: Array  # (T,) per-example coefficient eta_t / b applied at update t
    n_train: int
    config_digest: bytes = b"\x00" * 32
    # SAM settings needed to recompute each step's perturbation. The
    # trainer fills these in and version 2 files store them; a trajectory
    # read from a version 1 file needs them set by the caller.
    rho: float | None = None
    p: float | None = None

    def __post_init__(self):
        T = len(self.batches)
        if (self.params.ndim, self.params.shape[:1], self.batches.ndim, self.etas.shape,
                self.weights.shape) != (2, (T + 1,), 2, (T,), (T,)):
            raise InvalidInputError("trajectory needs (T+1, P) params, (T, b) batches and "
                                    "(T,) etas and weights")
        bad = np.flatnonzero(((self.batches < 0) | (self.batches >= self.n_train)).any(axis=1))
        if bad.size:
            raise InvalidInputError(f"step {bad[0]}: batch index out of range")
        s = np.sort(self.batches, axis=1)
        repeats = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if repeats.size:
            raise InvalidInputError(f"step {repeats[0]}: batch lists a position twice")

    @property
    def param_count(self) -> int:
        return self.params.shape[1]

    @property
    def total_steps(self) -> int:
        return len(self.batches)

    @property
    def final_params(self) -> Array:
        return self.params[-1]


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
    record: Array | None = None,
) -> Array:
    """The SAM step loop, run for R replicas at once as one (R, P) block.

    batches[t] is an (R, b) array of train-split positions: replica r's
    batch at step t. Every replica starts from the config's seeded
    init_params; replica r weights its batch-mean data loss by
    loss_scales[r] and is named labels[r] if it diverges. Every replica
    row is bitwise what a run of its own would give. record, if given, is
    a (T+1, P) array filled with replica 0's run: row t its parameters
    before update t, row T its final ones.
    """
    train_rows = dataset.indices("train")
    X_train, y_train = mod._check_examples(
        spec, dataset.features[train_rows], dataset.labels[train_rows]
    )
    if len(loss_scales) != len(labels):
        raise InvalidInputError(
            f"train_sam_many: need one loss scale per label, got {len(loss_scales)} "
            f"for {len(labels)} labels"
        )
    W = np.tile(mod.init_params(spec, config.seed), (len(labels), 1))
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
            record[t] = W[0]
        W = W - eta * G_sam
    bad = ~np.all(np.isfinite(W), axis=1)
    if bad.any():
        label = labels[int(np.argmax(bad))]
        raise DivergenceError(f"{label} diverged at step {config.steps} (non-finite weights)")
    if record is not None:
        record[config.steps] = W[0]
    return W


def train_sam(
    spec: mod.ModelSpec, dataset: mod.Dataset, config: SAMConfig
) -> tuple[Array, Trajectory]:
    """Run T SAM steps over the dataset's train split on the config's
    seeded sample_batches schedule (train_sam_many with one replica) and
    record the trajectory."""
    n = train_split_size(dataset, config)
    batches = sample_batches(n, config.batch_size, config.steps, config.seed, config.epoch_shuffled)
    params = np.empty((config.steps + 1, spec.param_count))
    w = train_sam_many(spec, dataset, config, batches[:, None], np.ones(1), ["training"], params)[0]
    return w, recorded_trajectory(params, batches, n, config)


def train_split_size(dataset: mod.Dataset, config: SAMConfig) -> int:
    """Rows in the dataset's train split; a ConfigError when there are none
    or fewer than the config's batch size."""
    n = int(dataset.indices("train").size)
    if n == 0:
        raise ConfigError("dataset has no train split rows")
    if config.batch_size > n:
        raise ConfigError(f"batch size {config.batch_size} exceeds train size {n}")
    return n


def recorded_trajectory(params: Array, batches: Array, n: int, config: SAMConfig) -> Trajectory:
    """The Trajectory of a run of config on an n-point train split: params
    (T+1, P) holds its recorded parameters and batches (T, b) its schedule."""
    etas = np.array([config.eta_at(t) for t in range(config.steps)])
    return Trajectory(params=params, batches=batches, etas=etas,
                      weights=etas * (1.0 / batches.shape[1]), n_train=n,
                      config_digest=config.digest(), rho=config.rho, p=config.p)


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
    digest, then rho and p, NaN where unset), then records (step, eta,
    weight, batch count, batch, params) of steps 0..T, the last empty."""
    settings = [math.nan if v is None else v for v in (traj.rho, traj.p)]
    T, b = traj.batches.shape
    batches, params = traj.batches.astype("<u4"), traj.params.astype("<f8", copy=False)
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<H", TRAJ_VERSION))
        f.write(struct.pack("<QQQ", traj.param_count, traj.n_train, T))
        f.write(traj.config_digest)
        f.write(struct.pack("<dd", *settings))
        for t in range(T):
            f.write(struct.pack("<QddI", t, traj.etas[t], traj.weights[t], b))
            f.write(batches[t].tobytes())
            f.write(params[t].tobytes())
        f.write(struct.pack("<QddI", T, 0.0, 0.0, 0))
        f.write(params[T].tobytes())


def read_trajectory(path) -> Trajectory:
    """Load a version 1 or 2 trajectory file. Anything but T update records
    of steps 0..T-1 with one batch count, each batch of distinct in-range
    positions, then the empty final record of step T is a FormatError."""
    with open(path, "rb") as f:
        data = f.read()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"trajectory file truncated while reading {what}")
        off += n
        return data[off - n : off]

    off = 0
    if take(4, "magic") != TRAJ_MAGIC:
        raise FormatError("bad magic bytes; not a trajectory file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version not in (1, TRAJ_VERSION):
        raise FormatError(f"unsupported trajectory version {version}")
    P, n, T = struct.unpack("<QQQ", take(24, "header"))
    digest = take(32, "config digest")
    settings = struct.unpack("<dd", take(16, "SAM settings")) if version >= 2 else (math.nan,) * 2
    # Every update record has the first one's batch count b.
    b = struct.unpack("<I", data[off + 24 : off + 28])[0] if T and len(data) >= off + 28 else 0
    chunk = take(T * (28 + 4 * b + 8 * P), "update records")
    recs = np.frombuffer(chunk, [("step", "<u8"), ("eta", "<f8"), ("weight", "<f8"),
                                 ("count", "<u4"), ("batch", "<u4", (b,)), ("params", "<f8", (P,))])
    final = struct.unpack("<QddI", take(28, "final record"))
    params = np.vstack([recs["params"], np.frombuffer(take(8 * P, "final params"), "<f8")])
    if off != len(data):
        raise FormatError(f"trajectory file has {len(data) - off} bytes after the final record")
    if (not np.array_equal(recs["step"], np.arange(T)) or np.any(recs["count"] != b)
            or T and b == 0 or final[0] != T or final[3] != 0):
        raise FormatError(f"trajectory needs steps 0..{T} of one batch size, the last empty")
    rho, p = (None if math.isnan(v) else v for v in settings)
    try:
        return Trajectory(params=params, batches=recs["batch"].astype(np.int64),
                          etas=recs["eta"].copy(), weights=recs["weight"].copy(), n_train=n,
                          config_digest=digest, rho=rho, p=p)
    except InvalidInputError as exc:  # a batch entry out of range or repeated
        raise FormatError(str(exc)) from None
