"""SAM training loop with dual-norm worst-case perturbations and
trajectory recording.

The optimizer follows the standard two-step scheme: compute the batch
gradient, step to the worst-case point inside the rho-ball (closed-form
dual-norm ascent direction), take the gradient there, descend. The
ascent direction's derivative w.r.t. the parameters is dropped, as in
the standard practical algorithm. L2 regularization applies only to the
outer descent gradient. The one step loop trains R replicas at once as an
(R, P) block; a single run is its R = 1 case.

A run is recorded as step-indexed arrays: the perturbed point w_t + eps_t
each update took its gradient at, then the final weights, each update's
batch and learning rate, and the run's rho and p. The trajectory
estimator differentiates at the recorded points as they are, so it
recomputes no perturbation. The per-example coefficient eta_t / b
follows from them. A trajectory file is one header and the same three
arrays.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from . import model as mod
from .errors import ConfigError, DivergenceError, FormatError, InvalidInputError
from .numcore import dual_exponent, p_norm, sample_batches

Array = np.ndarray

TRAJ_MAGIC = b"SAMT"
# The only version read. Versions 1 and 2 hold per-step records, and
# version 3 the same arrays as 4 with params[t] the weights before update t,
# not the perturbed point: read as version 4 it would give wrong gif answers.
TRAJ_VERSION = 4
# Magic, version, 2 pad bytes (so the arrays start 8-byte aligned), P,
# n_train, T, b, the config digest, rho and p.
_TRAJ_HEADER = struct.Struct("<4sH2xQQQQ32sdd")
# Label positions train_sam_many forms per np.take call (256 KiB), a step's at least.
_LABEL_CHUNK = 2**15


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

    def etas(self) -> np.ndarray:
        """The (T,) float64 learning rate of every step: eta_at(t) for
        t = 0 .. T-1, picked from the schedule in one pass."""
        if isinstance(self.eta, (int, float)):
            return np.full(self.steps, float(self.eta))
        starts, values = zip(*self.eta)
        return np.array(values)[np.searchsorted(starts, np.arange(self.steps), side="right") - 1]

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
    """A recorded SAM run of T updates with batch size b >= 1. Row t of
    params is the perturbed point w_t + eps_t update t took its gradient
    at. Each step's batch lists distinct train-split positions
    0..n_train-1, and config_digest is 32 bytes (SAMConfig.digest)."""

    params: Array  # (T+1, P) float64: row t update t's w_t + eps_t, row T the final weights
    batches: Array  # (T, b) int64: update t's train-split positions
    etas: Array  # (T,) float64: learning rate of update t
    n_train: int
    # The run's SAM settings, checked as SAMConfig checks them. They
    # describe the run; gif recomputes nothing from them, since params
    # already holds each step's perturbed point.
    rho: float
    p: float
    config_digest: bytes = b"\x00" * 32

    def __post_init__(self):
        if self.rho is None or not 0.0 <= self.rho < math.inf:
            raise InvalidInputError(f"trajectory rho must be finite and >= 0, got {self.rho}")
        if self.p is None or math.isnan(self.p):
            raise InvalidInputError(f"trajectory p must not be NaN or None, got {self.p}")
        if not isinstance(self.config_digest, bytes) or len(self.config_digest) != 32:
            raise InvalidInputError(f"trajectory config digest must be 32 bytes, got "
                                    f"{self.config_digest!r}")
        if not (np.issubdtype(self.batches.dtype, np.integer)
                and self.params.dtype == self.etas.dtype == np.float64):
            raise InvalidInputError(f"trajectory needs integer batches and float64 params and etas, "
                                    f"got {self.batches.dtype}, {self.params.dtype}, {self.etas.dtype}")
        T = len(self.batches)
        if (self.params.ndim, self.params.shape[:1], self.batches.ndim, self.etas.shape
                ) != (2, (T + 1,), 2, (T,)) or self.batches.shape[1] < 1:
            raise InvalidInputError("trajectory needs (T+1, P) params, (T, b) batches with "
                                    "b >= 1 and (T,) etas")
        bad = np.flatnonzero(((self.batches < 0) | (self.batches >= self.n_train)).any(axis=1))
        if bad.size:
            raise InvalidInputError(f"step {bad[0]}: batch index out of range")
        # Sorted in the smallest dtype that holds every (in-range) position:
        # a trajectory read from a file then holds little more than the file.
        s = self.batches.astype(np.min_scalar_type(self.n_train))
        s.sort(axis=1)
        repeats = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if repeats.size:
            raise InvalidInputError(f"step {repeats[0]}: batch lists a position twice")

    @property
    def param_count(self) -> int:
        return self.params.shape[1]

    @property
    def weights(self) -> Array:
        """(T,) per-example coefficient eta_t / b applied at update t."""
        return self.etas * (1.0 / self.batches.shape[1])


def worst_perturbation(grad: Array, rho: float, p: float, out: Array | None = None) -> Array:
    """Closed-form ascent direction on the boundary of the rho-ball.

    epsilon = rho * sign(g) * |g|^(q-1) / (||g||_q^q)^(1/p) with the dual
    exponent q. grad is one gradient (P,) or a stack of rows (R, P), each
    perturbed on its own ball. rho = 0 gives zeros; so does a zero gradient
    row, which divides by 1 wherever the formula would divide by 0. At
    p = 2 a row whose norm falls outside [1e-150, 1e150] is divided by its
    largest entry before rho multiplies it, so neither underflow nor
    overflow moves it off the ball. out, if given, is a C-contiguous float64 array of
    grad's shape that takes epsilon and is returned; at p = 2 nothing of
    grad's size is allocated.
    """
    g = np.asarray(grad, dtype=np.float64)
    if rho < 0.0:
        raise InvalidInputError("rho must be >= 0")
    if out is not None and not (out.shape == g.shape and out.dtype == np.float64
                                and out.flags.c_contiguous):
        raise InvalidInputError("worst_perturbation: out must be a C-contiguous float64 array "
                                "of the gradient's shape")
    G = g.reshape(-1, g.shape[-1])
    if p != 2.0:
        finite = np.isfinite(G).all()
    else:
        # Per-row dot products through matmul, bit for bit np.dot(g, g). A
        # non-finite entry makes its row's norm non-finite (NaN fails both
        # bounds), so only the odd rows, whose norm falls outside
        # [1e-150, 1e150], need the entry check.
        with np.errstate(over="ignore"):
            norm = np.sqrt(G[:, None, :] @ G[:, :, None])[:, 0]
        odd = [r for r, v in enumerate(norm.ravel().tolist()) if not 1e-150 <= v <= 1e150]
        finite = not odd or np.isfinite(G[odd]).all()
    if not finite:
        raise InvalidInputError("worst_perturbation: gradient has non-finite entries")
    eps = np.empty(g.shape) if out is None else out
    E = eps.reshape(G.shape)  # a view: eps is C-contiguous
    if rho == 0.0:
        E.fill(0.0)
        return eps
    if p == 2.0:
        keep = (1e-150 <= norm) & (norm <= 1e150) if odd else True  # the odd rows go below
        np.multiply(rho, G, out=E, where=keep)
        np.divide(E, norm, out=E, where=keep)
        for i in odd:  # divided by the row max first, so no step overflows or loses digits
            np.divide(G[i], np.abs(G[i]).max() or 1.0, out=E[i])  # a zero row divides by 1
            E[i] *= rho / (math.sqrt(E[i] @ E[i]) or 1.0)
    else:
        q = dual_exponent(p)
        a = np.abs(G)
        m = a.max(axis=1, keepdims=True)
        a /= np.where(m == 0.0, 1.0, m)  # rescale; the formula is scale-invariant in g
        np.sign(G, out=E)
        E *= np.power(a, q - 1.0)
        total = np.power(a, q, out=a).sum(axis=1, keepdims=True)
        E *= rho
        E /= np.power(np.where(total == 0.0, 1.0, total), 1.0 / p)
    return eps


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
    given, is a (T+1, P) array filled with replica 0's run: row t the
    perturbed point w_t + eps_t update t took its gradient at, row T its
    final weights. A batch loss that is NaN, infinite or above 1e6 at step
    t raises DivergenceError naming the lowest-index such replica and t.

    The steps run on arrays made for this call's (R, b) shape: the batch,
    W + eps (which worst_perturbation writes eps into) and two
    model._Kernel bindings, at W and at W + eps, that share every output
    array; W is updated in place. Each label's position in the kernel's
    logp is formed once per chunk of steps, for both passes, and each
    step's eta is read from a list made once. Per step only the divergence
    check's (R,) losses allocate, and at p != 2 worst_perturbation's power
    terms.
    """
    if len(loss_scales) != len(labels):
        raise InvalidInputError(
            f"train_sam_many: need one loss scale per label, got {len(loss_scales)} "
            f"for {len(labels)} labels"
        )
    W = np.tile(mod.init_params(spec, config.seed), (len(labels), 1))
    W_eps = np.empty_like(W)
    R, b = np.shape(batches[0])
    if not -len(y_train) <= np.min(batches) <= np.max(batches) < len(y_train):
        raise InvalidInputError("train_sam_many: a batch position is outside the train split")
    X = np.empty((R, b, X_train.shape[1]))
    kernel = mod._Kernel(spec, W, X)
    kernel_eps, G = kernel.at(W_eps), kernel.grad  # one set of arrays for both passes
    scale = loss_scales / b
    row_scale = scale[:, None]
    etas = config.etas().tolist()
    chunk = max(1, _LABEL_CHUNK // (R * b))
    positions = np.empty((min(chunk, config.steps), R, b), np.int64)
    for first in range(0, config.steps, chunk):
        # Every label's flat position in the kernel's logp, for a chunk of steps at once.
        steps = batches[first : first + chunk]
        part = np.take(y_train, steps, out=positions[: len(steps)], mode="wrap")
        part += kernel.rows
        for t, batch, label in zip(range(first, config.steps), steps, part):
            # take gathers rows faster than indexing; "wrap" (positions are checked
            # above) writes into X without the copy an out= array gets under "raise".
            X_train.take(batch, axis=0, out=X, mode="wrap")
            loss = scale * np.add.reduce(kernel.gradient(label), axis=-1)
            G *= row_scale
            # NaN fails both bounds; the (R,) losses are checked as Python floats.
            bad = [r for r, v in enumerate(loss.tolist()) if not -math.inf < v <= 1e6]
            if bad:
                raise DivergenceError(f"{labels[bad[0]]} diverged at step {t} "
                                      f"(batch loss {float(loss[bad[0]])})")
            worst_perturbation(G, config.rho, config.p, out=W_eps)
            W_eps += W  # eps + W, the same IEEE sum as W + eps
            if record is not None:
                record[t] = W_eps[0]
            kernel_eps.gradient(label, loss=False)
            # G_sam = scale * G_pert + lam * W; W -= eta * G_sam, with W_eps free for lam * W.
            G *= row_scale
            G += np.multiply(config.lam, W, out=W_eps)
            G *= etas[t]
            W -= G
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
    return Trajectory(params=params, batches=batches, etas=config.etas(), n_train=n,
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


def write_trajectory(traj: Trajectory, path) -> None:
    """Binary trajectory file, version 4: one header (_TRAJ_HEADER), then
    etas (T,) <f8, batches (T, b) <i8 and params (T+1, P) <f8, each written
    from the buffer the Trajectory holds (no copy when it is in those
    dtypes and C-contiguous)."""
    T, b = traj.batches.shape
    with open(path, "wb") as f:
        f.write(_TRAJ_HEADER.pack(TRAJ_MAGIC, TRAJ_VERSION, traj.param_count, traj.n_train, T, b,
                                  traj.config_digest, traj.rho, traj.p))
        for array, dtype in ((traj.etas, "<f8"), (traj.batches, "<i8"), (traj.params, "<f8")):
            f.write(np.ascontiguousarray(array, dtype))


def read_trajectory(path) -> Trajectory:
    """Load a version 4 trajectory file into one buffer, whose writable
    views are the Trajectory's arrays. Bad magic, a file cut inside its
    header (the version is read from the header, after that check), any
    other version, a size other than the header's arrays need, or a rho, p
    or batch entry that Trajectory refuses is a FormatError."""
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
    if data[:4] != TRAJ_MAGIC:
        raise FormatError("bad magic bytes; not a trajectory file")
    head = _TRAJ_HEADER.size
    if len(data) < head:
        raise FormatError(f"trajectory file truncated: {len(data)} bytes, the header needs {head}")
    _, version, P, n, T, b, digest, rho, p = _TRAJ_HEADER.unpack_from(data)
    if version != TRAJ_VERSION:
        raise FormatError(f"unsupported trajectory version {version}")
    size = head + 8 * (T + T * b + (T + 1) * P)
    if len(data) != size:
        what = "truncated" if len(data) < size else "too long"
        raise FormatError(f"trajectory file {what}: {len(data)} bytes, a header of T = {T}, "
                          f"b = {b}, P = {P} needs {size}")
    etas = np.frombuffer(data, "<f8", T, head)
    batches = np.frombuffer(data, "<i8", T * b, head + 8 * T).reshape(T, b)
    params = np.frombuffer(data, "<f8", (T + 1) * P, head + 8 * (T + T * b)).reshape(T + 1, P)
    try:
        return Trajectory(params=params, batches=batches, etas=etas, n_train=n,
                          config_digest=digest, rho=rho, p=p)
    except InvalidInputError as exc:  # bad rho, p or b, a batch entry out of range or repeated
        raise FormatError(str(exc)) from None
