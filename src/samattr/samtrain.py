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
per-example coefficient eta_t / b, and the run's rho and p: all that the
trajectory estimator needs, so a Trajectory is never built without them.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from . import model as mod
from .errors import ConfigError, DivergenceError, FormatError, InvalidInputError
from .numcore import dual_exponent, p_norm, sample_batches

Array = np.ndarray

TRAJ_MAGIC = b"SAMT"
TRAJ_VERSION = 2  # the only version read; version 1 files lack rho and p
# Bytes of update records write_trajectory holds at a time (at least one record).
TRAJ_WRITE_BYTES = 2**20


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
        # Each bound is a chained comparison that NaN and inf fail.
        if not 0.0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be finite and >= 0, got {self.rho}")
        if math.isnan(self.p):  # any other p is checked where rho > 0 uses it
            raise ConfigError("p must not be NaN")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.batch_size < 1 or self.steps < 1:
            raise ConfigError("batch_size, steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if isinstance(self.eta, (int, float)):
            if not 0.0 < self.eta < math.inf:
                raise ConfigError(f"eta must be finite and > 0, got {self.eta}")
        else:
            sched = tuple((int(t), float(e)) for t, e in self.eta)
            if not sched or sched[0][0] != 0 or not all(0.0 < e < math.inf for _, e in sched):
                raise ConfigError("step-decay schedule must start at step 0 with every eta "
                                  "finite and > 0")
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

    def schedule(self, n: int) -> np.ndarray:
        """The run's seeded (T, b) batch schedule over an n-point train
        split (numcore.sample_batches); a batch size above n is a ConfigError."""
        if self.batch_size > n:
            raise ConfigError(f"batch size {self.batch_size} exceeds train size {n}")
        return sample_batches(n, self.batch_size, self.steps, self.seed, self.epoch_shuffled)

    def digest(self) -> bytes:
        """SHA-256 of every field's text, in field order, joined by "|"."""
        text = "|".join(str(x) for x in astuple(self))
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
    # The run's SAM settings, checked as SAMConfig checks them: gif
    # recomputes each step's perturbation from them.
    rho: float
    p: float
    config_digest: bytes = b"\x00" * 32

    def __post_init__(self):
        if self.rho is None or not 0.0 <= self.rho < math.inf:
            raise InvalidInputError(f"trajectory rho must be finite and >= 0, got {self.rho}")
        if self.p is None or math.isnan(self.p):
            raise InvalidInputError(f"trajectory p must not be NaN or None, got {self.p}")
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


def train_sam_many(
    spec: mod.ModelSpec,
    X_train: Array,
    y_train: Array,
    config: SAMConfig,
    batches,
    loss_scales: Array,
    labels: list[str],
    record: Array | None = None,
) -> Array:
    """The SAM step loop, run for R replicas at once as one (R, P) block.

    X_train (n, d) and y_train (n,) are the train split's checked rows
    (model._split_rows), and batches[t] is an (R, b) array of their
    positions: replica r's batch at step t. Every replica starts from the
    config's seeded init_params; replica r weights its batch-mean data
    loss by loss_scales[r] and is named labels[r] if it diverges. Every
    replica row is bitwise what a run of its own would give. record, if
    given, is a (T+1, P) array filled with replica 0's run: row t its
    parameters before update t, row T its final ones.
    """
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
        # np.take gathers the feature rows faster than indexing; labels stay indexed.
        X, y = np.take(X_train, batch, axis=0), y_train[batch]
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
    seeded schedule (train_sam_many with one replica) and record the
    trajectory."""
    X, y = mod._split_rows(spec, dataset, "train")
    batches = config.schedule(y.size)
    params = np.empty((config.steps + 1, spec.param_count))
    w = train_sam_many(spec, X, y, config, batches[:, None], np.ones(1), ["training"], params)[0]
    return w, recorded_trajectory(params, batches, y.size, config)


def recorded_trajectory(params: Array, batches: Array, n: int, config: SAMConfig) -> Trajectory:
    """The Trajectory of a run of config on an n-point train split: params
    (T+1, P) holds its recorded parameters and batches (T, b) its schedule."""
    etas = np.array([config.eta_at(t) for t in range(config.steps)])
    return Trajectory(params=params, batches=batches, etas=etas,
                      weights=etas * (1.0 / batches.shape[1]), n_train=n,
                      config_digest=config.digest(), rho=config.rho, p=config.p)


def _sam_point(
    spec: mod.ModelSpec, X: Array, y: Array, params: Array, rho: float, p: float
) -> tuple[Array, Array, Callable[[Array], Array]]:
    """The SAM linearization at params over the train split's checked rows
    X, y, from one primal pass (model.hvp_operator at scale 1 / n_train):
    the full-train gradient g, the worst-case perturbation of g and the
    curvature operator at params."""
    g, apply_H = mod.hvp_operator(spec, params, X, y, 1.0 / y.size)
    return g, worst_perturbation(g, rho, p), apply_H


def stationarity_report(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, config: SAMConfig
) -> dict[str, float]:
    """Norms of the perturbed full-train gradient with and without the
    L2 term; both are reported because they vanish together only at lam=0."""
    X, y = mod._split_rows(spec, dataset, "train")
    _, eps, _ = _sam_point(spec, X, y, params, config.rho, config.p)
    _, G_pert = mod.stacked_loss_grad(spec, (params + eps)[None], X[None], y[None])
    g_pert = (1.0 / y.size) * G_pert[0]
    return {
        "grad_norm": p_norm(g_pert, 2.0),
        "grad_plus_l2_norm": p_norm(g_pert + config.lam * params, 2.0),
    }


def _record_dtype(b: int, P: int) -> np.dtype:
    """One packed record of a trajectory file: step, eta, weight, batch
    count, a batch of b positions and P parameters. The final record has
    b = 0, a zero eta and weight."""
    return np.dtype([("step", "<u8"), ("eta", "<f8"), ("weight", "<f8"), ("count", "<u4"),
                     ("batch", "<u4", (b,)), ("params", "<f8", (P,))])


def write_trajectory(traj: Trajectory, path) -> None:
    """Binary trajectory file: magic, version, header (sizes, config
    digest, then rho and p), then records (_record_dtype) of steps 0..T,
    the last empty. The update records are built and written
    TRAJ_WRITE_BYTES at a time."""
    T, b = traj.batches.shape
    update = _record_dtype(b, traj.param_count)
    per_block = max(1, TRAJ_WRITE_BYTES // update.itemsize)
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC + struct.pack("<HQQQ", TRAJ_VERSION, traj.param_count, traj.n_train, T)
                + traj.config_digest + struct.pack("<dd", traj.rho, traj.p))
        for lo in range(0, T, per_block):
            hi = min(lo + per_block, T)
            recs = np.empty(hi - lo, update)
            recs["step"], recs["count"], recs["batch"] = np.arange(lo, hi), b, traj.batches[lo:hi]
            recs["eta"], recs["weight"], recs["params"] = (
                traj.etas[lo:hi], traj.weights[lo:hi], traj.params[lo:hi])
            f.write(recs.tobytes())
        final = np.zeros(1, _record_dtype(0, traj.param_count))
        final["step"], final["params"] = T, traj.params[T]
        f.write(final.tobytes())


def read_trajectory(path) -> Trajectory:
    """Load a version 2 trajectory file. Any other version, a rho or p that
    Trajectory refuses, or anything but T update records of steps 0..T-1 with
    one batch count, each batch of distinct in-range positions, then the
    empty final record of step T is a FormatError."""
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
    if version != TRAJ_VERSION:
        raise FormatError(f"unsupported trajectory version {version}")
    P, n, T = struct.unpack("<QQQ", take(24, "header"))
    digest = take(32, "config digest")
    rho, p = struct.unpack("<dd", take(16, "SAM settings"))
    # Every update record has the first one's batch count b.
    b = struct.unpack("<I", data[off + 24 : off + 28])[0] if T and len(data) >= off + 28 else 0
    update, last = _record_dtype(b, P), _record_dtype(0, P)
    recs = np.frombuffer(take(T * update.itemsize, "update records"), update)
    final = np.frombuffer(take(last.itemsize, "final record"), last)[0]
    params = np.vstack([recs["params"], final["params"]])
    if off != len(data):
        raise FormatError(f"trajectory file has {len(data) - off} bytes after the final record")
    if (not np.array_equal(recs["step"], np.arange(T)) or np.any(recs["count"] != b)
            or T and b == 0 or final["step"] != T or final["count"] != 0):
        raise FormatError(f"trajectory needs steps 0..{T} of one batch size, the last empty")
    try:
        return Trajectory(params=params, batches=recs["batch"].astype(np.int64),
                          etas=recs["eta"].copy(), weights=recs["weight"].copy(), n_train=n,
                          config_digest=digest, rho=rho, p=p)
    except InvalidInputError as exc:  # bad rho or p, a batch entry out of range or repeated
        raise FormatError(str(exc)) from None
