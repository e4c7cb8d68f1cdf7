"""Influence estimators for SAM-trained models.

Three estimators share one sign convention: the returned influence
vector IF(k) points so that the leave-one-out retrained parameters are
approximately ``params - IF(k)``. The influence score is oriented so
that a positive score predicts the validation loss *increases* when the
point is removed, i.e. positive = valuable, negative = harmful.

* fast Hessian estimator: inverse-Hessian-vector product at the
  perturbed optimum, perturbation treated as fixed.
* total-Hessian estimator: additionally propagates the dependence of
  the worst-case perturbation on the parameters through the operator.
* trajectory estimator: sums learning-rate-weighted per-point gradients
  at each recorded step's perturbed parameters, gated by batch membership.

Inverse operators are applied by GMRES (``gmres_solve``) on the damped
operator, to a relative residual of KRYLOV_RTOL; a solve that misses it
within its iteration cap raises DivergenceError (CLI exit 3) instead of
returning an unconverged vector. No Hessian is ever materialized here.
``neumann_ihvp``, a scaled truncated Neumann series, is kept as a library
function; the commands do not use it.

One dispatch serves two entry points. ``influence_scores`` scores points
against query gradients (the validation loss, a test point): the Hessian
estimators solve the transposed operator once per query, A^T s = q, and
the score of point k is g_k . s, so scoring every point costs one solve
per query, not one per point. ``influence_vectors`` returns IF(k)
itself, one solve per point, for the few points a caller removes or
edits. Either way the linearization (w_pert, full-train gradient) is
built once per call, the points' gradients come from one per-example
call, and right-hand sides are solved as blocks, one block HVP per
iteration. The perturbation's Jacobian is the closed form (d eps / d g) H
for every p, symmetric in its gradient factor, which is what makes A^T as
cheap as A. The trajectory estimator replays the recorded steps once, in
blocks of consecutive steps of at most GIF_BLOCK_FLOATS gradient floats:
per block, one stacked gradient call gives every step's perturbation and
one more the per-example gradients of the scored points each step used;
its scores are its vectors' dot products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as mod
from .errors import DivergenceError, InvalidInputError
from .numcore import dual_exponent
from .samtrain import Trajectory, sam_perturbation, worst_perturbation

Array = np.ndarray
LinearOperator = Callable[[Array], Array]

ESTIMATORS = ("if_fast", "hif", "gif")

# Tangent rows per block HVP: the right-hand sides of one block GMRES
# solve, or the unit columns of one dense_hessian step. A block HVP holds
# (rows, n_train, width) tangent arrays, so this bounds peak memory
# whatever the number of points.
HVP_BLOCK = 64

# A GMRES row stops once its relative residual ||(A + damp I) x - b|| / ||b||
# is at most this, checked against the true residual.
KRYLOV_RTOL = 1e-10

# Floats of Krylov basis and Hessenberg matrices one block solve should
# stay within; a large model's block solves get fewer than HVP_BLOCK rows.
KRYLOV_BASIS_FLOATS = 2**23

# Floats of per-example gradients one block of gif's trajectory replay
# should stay within: a block of C steps, each scoring at most m points,
# holds (C, m, P) gradients, so C = max(1, this // (m P)). At C = 1 a
# block holds what one step's per-example call does.
GIF_BLOCK_FLOATS = 2**16


@dataclass(frozen=True)
class NeumannConfig:
    """Solve settings. order caps the iterations of one solve and damp is
    added to the operator's diagonal, for gmres_solve (every estimator
    call) and neumann_ihvp alike; alpha and zeta are neumann_ihvp's step
    size and L1 stop rule only."""

    order: int = 500  # max iterations J
    alpha: float | None = None  # None: auto from a trace estimate
    damp: float = 0.01
    zeta: float = 1e-9  # L1 early-stop threshold

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError("Neumann order must be >= 1")
        if self.alpha is not None and self.alpha <= 0.0:
            raise InvalidInputError("Neumann alpha must be > 0")
        if self.damp < 0.0 or self.zeta <= 0.0:
            raise InvalidInputError("need damp >= 0 and zeta > 0")


@dataclass(frozen=True)
class InfluenceRequest:
    k: int
    estimator: str = "if_fast"
    delta: float = -1.0  # up-weight factor; -1 models removal

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise InvalidInputError(f"unknown estimator {self.estimator!r}")


@dataclass
class InfluenceRecord:
    k: int
    estimator: str
    influence: Array
    score: float
    wall_time: float


def _auto_alpha(apply_A: LinearOperator, dim: int, iters: int = 20) -> float:
    """0.9 / (largest-eigenvalue estimate), via seeded power iteration.

    Scaling by the top eigenvalue (rather than the mean) keeps the
    Neumann iteration contractive whenever the operator is positive
    definite; a trace-based mean badly overshoots when the spectrum is
    spread out.
    """
    rng = np.random.default_rng(0)
    z = rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    lam_max = 1.0
    for _ in range(iters):
        az = apply_A(z)
        norm = np.linalg.norm(az)
        if norm == 0.0 or not np.isfinite(norm):
            break
        lam_max = norm
        z = az / norm
    if lam_max <= 0.0:
        return 1.0
    return 0.9 / lam_max


def neumann_ihvp(apply_A: LinearOperator, g: Array, cfg: NeumannConfig) -> Array:
    """Approximate (A + damp*I)^{-1} g by the scaled Neumann iteration
    v_{j+1} = alpha*g + v_j - alpha*(A + damp*I) v_j, v_0 = alpha*g.

    g is one right-hand side (P,) or a block (m, P) of them, one per row;
    for a block, apply_A takes blocks of rows. Each row stops early once
    its own L1 step shrinks below zeta, and only rows still running go
    to apply_A, so a row's result is that of its solve alone. Convergence
    needs the damped, scaled operator to have spectral radius below one;
    divergence of any row raises with advice to shrink alpha or raise damp.
    """
    g = np.asarray(g, dtype=np.float64)
    alpha = cfg.alpha if cfg.alpha is not None else _auto_alpha(apply_A, g.shape[-1])
    op = apply_A if g.ndim == 2 else (lambda rows: apply_A(rows[0])[None])
    ag = alpha * np.atleast_2d(g)
    v = ag.copy()
    active = np.arange(v.shape[0])
    for _ in range(cfg.order):
        if active.size == 0:
            break
        va = v[active]
        v_next = ag[active] + va - alpha * (op(va) + cfg.damp * va)
        if not np.all(np.isfinite(v_next)):
            raise DivergenceError(
                "Neumann iteration diverged; reduce alpha or increase damp"
            )
        steps = np.abs(v_next - va).sum(axis=1)
        v[active] = v_next
        active = active[steps > cfg.zeta]
    return v.reshape(g.shape)


def _row_dots(X: Array, Y: Array) -> Array:
    """Row-wise dot products of two (m, n) arrays, each row its own product."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _check_finite(a: Array, iteration: int) -> None:
    if not np.all(np.isfinite(a)):
        raise DivergenceError(f"GMRES operator returned a non-finite value at iteration {iteration}")


def gmres_solve(apply_A: LinearOperator, rhs: Array, damp: float, order: int) -> Array:
    """Solve (A + damp*I) x = b by full (unrestarted) GMRES from x = 0.

    rhs is one right-hand side b (P,) or a block (m, P) of them, one per
    row; for a block, apply_A takes blocks of rows. A need not be symmetric
    or definite. Rows run in lockstep, one operator call per iteration on
    the rows still running, and each row's arithmetic is its own, so a
    row's result is that of its solve alone. Each iteration extends a row's
    orthonormal Krylov basis (classical Gram-Schmidt, applied twice) and
    updates its residual estimate ||b - (A + damp*I) x|| / ||b|| through
    the last row of the Hessenberg matrix's Givens factor. Once the
    estimate reaches KRYLOV_RTOL, the row's x comes from the small least
    squares problem and one more operator call checks its true residual;
    a row that passes retires, one that fails keeps iterating. Zero rows
    stay exactly zero and cost nothing, and the basis grows as it is used.
    A non-finite value, or a row still above the tolerance after `order`
    iterations, raises DivergenceError.
    """
    b = np.asarray(rhs, dtype=np.float64)
    op = apply_A if b.ndim == 2 else (lambda rows: apply_A(rows[0])[None])
    B = np.atleast_2d(b)
    out = np.zeros_like(B)
    norms = np.sqrt(_row_dots(B, B))
    if not np.all(np.isfinite(norms)):
        raise DivergenceError("GMRES right-hand side is not finite")
    run = np.flatnonzero(norms > 0.0)  # rows of B still running
    beta = norms[run]
    size = min(order + 1, 16)  # basis vectors allocated so far
    V = np.zeros((run.size, size, B.shape[1]))
    V[:, 0] = B[run] / beta[:, None]
    H = np.zeros((run.size, size, size))  # Hessenberg matrix, (j + 2, j + 1) used
    q = np.zeros((run.size, size))  # last row of the Givens factor Q^T
    q[:, 0] = 1.0
    est = np.ones(run.size)  # estimated relative residual
    true = np.full(run.size, np.nan)  # true relative residual, once checked
    for j in range(order):
        if run.size == 0:
            break
        if j + 2 > size:
            grow = min(2 * size, order + 1) - size
            size += grow
            V = np.pad(V, ((0, 0), (0, grow), (0, 0)))
            H = np.pad(H, ((0, 0), (0, grow), (0, grow)))
            q = np.pad(q, ((0, 0), (0, grow)))
        v = V[:, j]
        w = op(v) + damp * v
        _check_finite(w, j + 1)
        basis = V[:, : j + 1]
        h = np.zeros((run.size, j + 1))
        for _ in range(2):  # classical Gram-Schmidt, applied twice
            c = (basis @ w[:, :, None])[:, :, 0]
            w = w - (c[:, None, :] @ basis)[:, 0]
            h += c
        nu = np.sqrt(_row_dots(w, w))
        H[:, : j + 1, j] = h
        H[:, j + 1, j] = nu
        # r is the new column's diagonal entry after the earlier Givens
        # rotations; the next rotation takes (r, nu) onto (d, 0), and the
        # least squares residual shrinks by |sin|.
        r = _row_dots(q[:, : j + 1], h)
        d = np.hypot(r, nu)
        live = d > 0.0
        cos = np.divide(r, d, out=np.ones_like(d), where=live)
        sin = np.divide(nu, d, out=np.zeros_like(d), where=live)
        est *= np.abs(sin)
        q[:, : j + 1] *= -sin[:, None]
        q[:, j + 1] = cos
        V[:, j + 1] = np.divide(w, nu[:, None], out=np.zeros_like(w), where=nu[:, None] > 0.0)
        check = np.flatnonzero(est <= KRYLOV_RTOL)
        if check.size == 0:
            continue
        # x = V y with y minimizing ||beta e1 - H y||, then its true residual.
        e1 = np.eye(j + 2, 1)[:, 0]
        X = np.stack([
            np.linalg.lstsq(H[i, : j + 2, : j + 1], beta[i] * e1, rcond=None)[0] @ V[i, : j + 1]
            for i in check
        ])
        R = B[run[check]] - (op(X) + damp * X)
        _check_finite(R, j + 1)
        true[check] = np.sqrt(_row_dots(R, R)) / beta[check]
        passed = true[check] <= KRYLOV_RTOL
        if np.any(nu[check[~passed]] == 0.0):
            raise DivergenceError(
                f"GMRES broke down at iteration {j + 1} with relative residual "
                f"{true[check[~passed]].max():.3e}: the operator is singular"
            )
        out[run[check[passed]]] = X[passed]
        keep = np.ones(run.size, dtype=bool)
        keep[check[passed]] = False
        run, beta, V, H, q, est, true = (a[keep] for a in (run, beta, V, H, q, est, true))
    if run.size:
        worst = float(np.fmax(est, true).max())
        raise DivergenceError(
            f"GMRES did not converge in {order} iterations: relative residual {worst:.3e} "
            f"> {KRYLOV_RTOL:g}; raise neumann_order or neumann_damp"
        )
    return out.reshape(b.shape)


def _train_rows(dataset: mod.Dataset) -> Array:
    rows = dataset.indices("train")
    if rows.size == 0:
        raise InvalidInputError("dataset has no train split rows")
    return rows


def perturbed_params(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float, p: float
) -> tuple[Array, Array]:
    """params + worst-case perturbation of the full train loss; also the
    perturbation itself."""
    rows = _train_rows(dataset)
    _, eps = sam_perturbation(spec, params, dataset, rows, 1.0 / rows.size, rho, p)
    return params + eps, eps


def _eps_grad_jacobian(g: Array, rho: float, p: float) -> LinearOperator:
    """h -> (d eps / d g) h for the worst-case perturbation of gradient g.

    d eps / d g = rho/N [(q-1) diag(|g|^(q-2)) - (q/p) u u^T / sum|g|^q]
    with u = sign(g)|g|^(q-1), N = (sum|g|^q)^(1/p) and q the dual
    exponent; at p = 2 this is the projection rho/|g| (I - g g^T/|g|^2).
    The matrix is symmetric, so the map is its own transpose. It is
    singular at a zero gradient and, for p > 2 (q < 2), at a zero entry.
    """
    if not np.any(g):
        raise InvalidInputError("perturbation Jacobian is singular at a zero gradient")
    q = dual_exponent(p)
    if q < 2.0 and not np.all(g):
        raise InvalidInputError(
            f"perturbation Jacobian is singular at p={p}: the gradient has a zero entry"
        )
    m = float(np.abs(g).max())
    a = np.abs(g) / m  # eps is scale-invariant in g, so d eps / d g scales as 1/m
    u = np.sign(g) * np.power(a, q - 1.0)
    diag = (q - 1.0) * np.power(a, q - 2.0)
    total = np.power(a, q).sum()
    coef = rho / (np.power(total, 1.0 / p) * m)
    outer = q / (p * total)

    def apply_D(h: Array) -> Array:
        # u . h as a stack of one-row products, so no row depends on its block
        return coef * (diag * h - outer * u * (h[..., None, :] @ u))

    return apply_D


def _eps_factors(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float, p: float
) -> tuple[LinearOperator, LinearOperator]:
    """(H, D) with d eps / d w = D H at params: H the full-train Hessian
    and D = d eps / d g, both symmetric, so J = D H and J^T = H D. Each
    takes one vector or a block of rows; the full-train gradient D needs
    is taken once, here, not per application."""
    rows = _train_rows(dataset)
    scale = 1.0 / rows.size
    _, g = mod.subset_loss_grad(spec, params, dataset, rows, scale)
    apply_D = _eps_grad_jacobian(g, rho, p)
    return (lambda v: mod.hvp(spec, params, dataset, rows, v, scale)), apply_D


def eps_jacobian_vec(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    params: Array,
    rho: float,
    p: float,
    v: Array,
) -> Array:
    """Directional derivative of the worst-case perturbation: (d eps / d w) v.

    The closed form (d eps / d g) H v, exact for every p in (1, inf). A
    zero full-train gradient, or for p > 2 a zero gradient entry, makes
    the Jacobian singular and is rejected.
    """
    v = np.asarray(v, dtype=np.float64)
    if rho == 0.0:
        return np.zeros_like(v)
    apply_H, apply_D = _eps_factors(spec, dataset, params, rho, p)
    return apply_D(apply_H(v))


def _linearize(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float, p: float, lam: float,
    total: bool,
) -> tuple[Array, LinearOperator, LinearOperator]:
    """The operator the Hessian estimators solve against, built once:
    A v = H_pert (v + J v) + lam v, with H_pert the full-train Hessian at
    the perturbed optimum and J = D H the perturbation's Jacobian (total
    only). Its transpose is A^T u = h + H (D h) + lam u with h = H_pert u;
    without J, A is symmetric and A^T is A itself. Both take one vector or
    a block of rows. Returns w_pert, A and A^T."""
    rows = _train_rows(dataset)
    scale = 1.0 / rows.size
    w_pert, _ = perturbed_params(spec, dataset, params, rho, p)

    def apply_Hpert(v: Array) -> Array:
        return mod.hvp(spec, w_pert, dataset, rows, v, scale)

    if total and rho > 0.0:
        apply_H, apply_D = _eps_factors(spec, dataset, params, rho, p)

        def apply_A(v: Array) -> Array:
            return apply_Hpert(v + apply_D(apply_H(v))) + lam * v

        def apply_AT(u: Array) -> Array:
            h = apply_Hpert(u)
            return h + apply_H(apply_D(h)) + lam * u
    else:
        def apply_A(v: Array) -> Array:
            return apply_Hpert(v) + lam * v

        apply_AT = apply_A
    return w_pert, apply_A, apply_AT


def _block_solve(apply_A: LinearOperator, rhs: Array, ncfg: NeumannConfig) -> Array:
    """gmres_solve over the rows of rhs, a block of rows at a time: at most
    HVP_BLOCK, and fewer when the block's Krylov basis and Hessenberg
    matrices, k (P + k) floats a row for k basis vectors, could outgrow
    KRYLOV_BASIS_FLOATS. In exact arithmetic GMRES ends within P
    iterations, so k <= P + 1."""
    P = rhs.shape[1]
    k = min(ncfg.order, P) + 1
    rows = max(1, min(HVP_BLOCK, KRYLOV_BASIS_FLOATS // (k * (P + k))))
    out = np.zeros_like(rhs)
    for start in range(0, rhs.shape[0], rows):
        out[start : start + rows] = gmres_solve(apply_A, rhs[start : start + rows], ncfg.damp,
                                                ncfg.order)
    return out


def _check_ks(ks, n: int) -> Array:
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    bad = ks[(ks < 0) | (ks >= n)]
    if bad.size:
        raise InvalidInputError(f"training index {bad[0]} out of range")
    return ks


def _influence(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
    queries: Array | None,
) -> Array:
    """The one estimator dispatch. Without queries: IF(k), one row per
    training index in ks. With queries (m, P): scores[len(ks), m] =
    -IF(k) . q. The Hessian estimators build one linearization; vectors
    solve A against every point's gradient, scores solve A^T against
    every query and dot the points' gradients with the results. gif
    replays the trajectory once for all of ks either way."""
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"unknown estimator {estimator!r}")
    if queries is not None:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != spec.param_count:
            raise InvalidInputError("queries must be (m, P) gradients of the model's parameters")
    if estimator == "gif":
        if trajectory is None:
            raise InvalidInputError("gif estimator needs a trajectory")
        vectors = _gif_vectors(trajectory, spec, dataset, ks, gif_mode)
        return vectors if queries is None else -(vectors @ queries.T)
    rows = _train_rows(dataset)
    ks = _check_ks(ks, rows.size)
    w_pert, apply_A, apply_AT = _linearize(spec, dataset, params, rho, p, lam, estimator == "hif")
    if ks.size == 0:
        return np.zeros((0, spec.param_count if queries is None else queries.shape[0]))
    grads = (1.0 / rows.size) * mod.example_grads(spec, w_pert, dataset, rows[ks])
    if queries is None:
        return -_block_solve(apply_A, grads, ncfg)
    return grads @ _block_solve(apply_AT, queries, ncfg).T


def influence_vectors(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
) -> Array:
    """Influence vectors IF(k), one row per training index in ks, in one
    pass: one solve per point for the Hessian estimators (HVP_BLOCK rows
    at a time), one trajectory replay for gif. A row does not depend on
    which other points share the call."""
    return _influence(estimator, spec, dataset, params, rho, p, lam, ncfg, ks, trajectory,
                      gif_mode, None)


def influence_scores(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
    queries: Array,
) -> Array:
    """Influence scores scores[i, j] = -IF(ks[i]) . queries[j] for m query
    gradients (m, P), e.g. a validation or test-point loss gradient;
    positive = removing the point is predicted to raise that loss.

    The Hessian estimators cost one transposed solve per query, not one
    solve per point: -IF(k) . q = g_k . A^-T q."""
    return _influence(estimator, spec, dataset, params, rho, p, lam, ncfg, ks, trajectory,
                      gif_mode, queries)


def sam_if_fast(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    params: Array,
    rho: float,
    p: float,
    lam: float,
    k: int,
    ncfg: NeumannConfig,
) -> Array:
    """Fast estimator: -(H + lam*I)^{-1} grad_k, both taken at the
    perturbed optimum, with the perturbation held fixed."""
    out = influence_vectors("if_fast", spec, dataset, params, rho, p, lam, ncfg, [k], None, "sgd")
    return out[0]


def sam_hif(
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    params: Array,
    rho: float,
    p: float,
    lam: float,
    k: int,
    ncfg: NeumannConfig,
) -> Array:
    """Total-Hessian estimator: like the fast one, but the operator also
    carries the curvature applied to the perturbation's parameter
    Jacobian. At rho = 0 the extra term vanishes exactly."""
    out = influence_vectors("hif", spec, dataset, params, rho, p, lam, ncfg, [k], None, "sgd")
    return out[0]


def sam_gif(
    trajectory: Trajectory,
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    k: int,
    mode: str = "sgd",
) -> Array:
    """Trajectory estimator: IF(k) = -sum_t w_t * [k in batch t] * grad_k
    at the perturbed params[t], with w_t the recorded per-example
    coefficient weights[t]. gd mode drops the batch-membership gate.

    The perturbation at each step is recomputed from that step's batch
    gradient, matching what the trainer actually applied. One call
    replays the whole trajectory; for many points, influence_vectors or
    influence_scores replays it once for all of them.
    """
    return _gif_vectors(trajectory, spec, dataset, [k], mode)[0]


def _gif_vectors(
    trajectory: Trajectory, spec: mod.ModelSpec, dataset: mod.Dataset, ks, mode: str
) -> Array:
    """sam_gif for every training index in ks from one replay, in blocks of
    steps (_gif_blocks) with no per-step kernel call. A block makes two
    stacked_loss_grad calls: one over its steps' parameter rows and
    batches, whose gradients give every perturbation in one
    worst_perturbation call, and one over the perturbed rows, each
    broadcast over one-example stacks of the scored points its step used.
    A point listed twice in ks is replayed once and its row repeated. Each
    row adds its steps' terms in step order, so it is bitwise the
    one-step-at-a-time replay's, whatever the block size.

    A batch entry outside 0..n_train-1 is rejected before any replay work."""
    if mode not in ("gd", "sgd"):
        raise InvalidInputError(f"unknown gif mode {mode!r}")
    if trajectory.param_count != spec.param_count:
        raise InvalidInputError("trajectory parameter count does not match the model")
    rows = _train_rows(dataset)
    n = rows.size
    if n != trajectory.n_train:
        raise InvalidInputError("trajectory train size does not match the dataset")
    ks = _check_ks(ks, n)
    if trajectory.rho is None or trajectory.p is None:
        raise InvalidInputError(
            "trajectory is missing its SAM settings (a version 1 file does not store "
            "them); set trajectory.rho and trajectory.p before computing trajectory influence"
        )
    batches = trajectory.batches
    outside = ((batches < 0) | (batches >= n)).any(axis=1)
    if outside.any():
        raise InvalidInputError(f"step {np.argmax(outside)}: batch entry out of range 0..{n - 1}")
    uniq, inverse = np.unique(ks, return_inverse=True)
    total = np.zeros((uniq.size, spec.param_count))
    X_train, y_train = mod._check_examples(spec, dataset.features[rows], dataset.labels[rows])
    slot = np.full(n, -1)  # slot[k]: k's row of uniq, or -1 if k is not scored
    slot[uniq] = np.arange(uniq.size)
    for sel, hits in _gif_blocks(batches, slot, uniq.size, spec.param_count, mode):
        W = trajectory.params[sel]  # a gathered copy: the perturbation is added in place
        batch = batches[sel]
        _, G = mod.stacked_loss_grad(spec, W, X_train[batch], y_train[batch])
        W += worst_perturbation((1.0 / batch.shape[1]) * G, trajectory.rho, trajectory.p)
        # Pad slots (-1) compute the first scored point's gradient and are dropped.
        pts = uniq[np.maximum(hits, 0)]
        _, G = mod.stacked_loss_grad(spec, W, X_train[pts][..., None, :],
                                     y_train[pts][..., None])
        G *= trajectory.weights[sel][:, None, None]
        for c, pad in enumerate((hits < 0).sum(axis=1)):
            total[hits[c, pad:]] += G[c, pad:]
    # Sorted, distinct ks (every command's) need no gathered copy of total.
    out = total if np.array_equal(uniq, ks) else total[inverse]
    return np.negative(out, out=out)


def _gif_blocks(batches: Array, slot: Array, count: int, P: int, mode: str):
    """Cut the (T, b) batches into replay blocks (sel, hits): sel the
    indices of C consecutive scoring steps, hits (C, m) the rows of uniq
    (slot entries) each of them scores, padded with -1 in front. C =
    max(1, GIF_BLOCK_FLOATS // (m P)), m the largest count any step of the
    block scores. In gd mode every step scores every point; in sgd mode a
    step scores the points of its batch (distinct, as train_sam and
    read_trajectory require), and one that scores none is left out."""
    if mode == "gd":
        hits = np.broadcast_to(np.arange(count), (len(batches), count))
    else:
        hits = np.sort(slot[batches], axis=1)
    counts = (hits >= 0).sum(axis=1)
    live = np.flatnonzero(counts)
    i = 0
    while i < live.size:
        m, j = counts[live[i]], i + 1
        while j < live.size and (j - i + 1) * max(m, counts[live[j]]) * P <= GIF_BLOCK_FLOATS:
            m, j = max(m, counts[live[j]]), j + 1
        sel = live[i:j]
        yield sel, hits[sel, hits.shape[1] - m :]
        i = j


def influence_score(
    spec: mod.ModelSpec,
    params: Array,
    dataset: mod.Dataset,
    val_indices,
    ifvec: Array,
) -> float:
    """Predicted validation-loss change on removal: positive = removing
    the point hurts (valuable), negative = removal helps (harmful).

    Computed as the validation-gradient inner product with the
    estimated parameter displacement (params_after_removal - params),
    which is -ifvec under the "omega_k ~ params - IF" convention.
    """
    val_indices = np.atleast_1d(np.asarray(val_indices, dtype=np.int64))
    if val_indices.size == 0:
        raise InvalidInputError("influence_score: empty validation index set")
    ifvec = np.asarray(ifvec, dtype=np.float64)
    _, gval = mod.subset_loss_grad(spec, params, dataset, val_indices, 1.0)
    return -float(gval @ ifvec)


def compute_influence(
    request: InfluenceRequest,
    spec: mod.ModelSpec,
    dataset: mod.Dataset,
    params: Array,
    rho: float,
    p: float,
    lam: float,
    ncfg: NeumannConfig,
    trajectory: Trajectory | None = None,
    gif_mode: str = "sgd",
    val_indices=None,
) -> InfluenceRecord:
    """Run one estimator for one training point and score it against the
    validation split (or explicit validation rows)."""
    start = time.perf_counter()
    base = influence_vectors(request.estimator, spec, dataset, params, rho, p, lam, ncfg,
                             [request.k], trajectory, gif_mode)[0]
    # delta scales the up-weighting; removal (delta=-1) is the identity here.
    ifvec = (-request.delta) * base
    if val_indices is None:
        val_indices = dataset.indices("val")
    score = influence_score(spec, params, dataset, val_indices, ifvec)
    return InfluenceRecord(
        k=request.k,
        estimator=request.estimator,
        influence=ifvec,
        score=score,
        wall_time=time.perf_counter() - start,
    )
