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
``neumann_ihvp``, a scaled truncated Neumann series for one vector, is kept
as a library function; the commands do not use it.

One dispatch serves two entry points, and both take removal sets as
oracle.loo_retrain_many does: each entry one train position or a
collection of them, whose influence is the sum of its points', since the
estimators are linear in the removal weights. ``influence_scores`` scores
sets against query gradients (the validation loss, a test point): the
Hessian estimators solve the transposed operator once per query, A^T s =
q, and the score of set S is g_S . s with g_S its points' summed
gradient, so scoring every point costs one solve per query, not one per
point; gif projects its replay's per-example gradients onto the queries
and builds no per-point vector. ``influence_vectors`` returns IF(S)
itself, one solve per set against g_S, for the sets a caller removes or
edits. Either way the dispatch checks the train split once
(model._split_rows) and the sets once, merging a repeated point, so
everything below it takes the checked rows X, y, not the dataset, and
sorted, distinct points. The linearization
is built once per call from the SAM point at params (samtrain._sam_point):
one curvature operator (model.hvp_operator) whose primal pass also gives
the full-train gradient g and so eps, then one at w_pert = params + eps.
The total estimator applies both, with no separate gradient pass; each
primal pass runs once, and each solver iteration applies only the tangent
half of the HVP. The sets' points get their gradients from one stacked
call on one-example stacks, and right-hand sides are solved as blocks,
one block application per iteration. The perturbation's Jacobian
is the closed form (d eps / d g) H for every p, symmetric in its gradient
factor, which is what makes A^T as cheap as A. The trajectory estimator
replays the recorded steps once (_gif_replay), in blocks of consecutive
steps of at most GIF_BLOCK_FLOATS factor floats: per block, one factor
call at the recorded perturbed points w_t + eps_t gives every per-example
gradient as (delta, a) factors, with no perturbation recomputed. For
vectors, one batched matmul per layer adds them into the scored
points' rows. For scores, two matmuls per layer project every row onto
the queries (delta^T Q a + delta . q_b), and each scored point's products
add into its scores, a TracIn-style sum. A set's vector or scores are the
sum of its points'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model as mod
from .errors import DivergenceError, InvalidInputError
from .numcore import _removal_set, dual_exponent
from .samtrain import Trajectory, _sam_point
from .samtrain import worst_perturbation  # noqa: F401  re-exported; bench/ traces it here

Array = np.ndarray
LinearOperator = Callable[[Array], Array]

ESTIMATORS = ("if_fast", "hif", "gif")
GIF_MODES = ("sgd", "gd")  # gif's batch gate: per step's batch, or every step

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

# Floats one block of gif's trajectory replay should stay within: a block
# of C steps holds per-example factors of C b' input rows, sum(fan_in +
# fan_out) floats each (b' = b in sgd mode, n_train in gd mode), so C =
# max(1, this // (b' sum(fan_in + fan_out))); a chunk of its points holds
# at most this many gradient and gathered factor floats, and a run of its
# steps' projections onto the queries at most this many, where one step's
# projection onto one query fits.
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
        if not (0.0 <= self.damp < math.inf and self.zeta > 0.0):
            raise InvalidInputError(f"need a finite damp >= 0 and zeta > 0, got damp "
                                    f"{self.damp}, zeta {self.zeta}")


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
    return 0.9 / lam_max


def neumann_ihvp(apply_A: LinearOperator, g: Array, cfg: NeumannConfig) -> Array:
    """Approximate (A + damp*I)^{-1} g by the scaled Neumann iteration
    v_{j+1} = alpha*g + v_j - alpha*(A + damp*I) v_j, v_0 = alpha*g.

    g is one right-hand side (P,); a block of them is an InvalidInputError
    (gmres_solve solves blocks). The iteration stops early once its L1 step
    shrinks below zeta. Convergence needs the damped, scaled operator to
    have spectral radius below one; divergence raises with advice to
    shrink alpha or raise damp.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1:
        raise InvalidInputError(f"neumann_ihvp takes one right-hand side (P,), got shape {g.shape}")
    alpha = cfg.alpha if cfg.alpha is not None else _auto_alpha(apply_A, g.size)
    ag = alpha * g
    v = ag.copy()
    for _ in range(cfg.order):
        v_next = ag + v - alpha * (apply_A(v) + cfg.damp * v)
        if not np.all(np.isfinite(v_next)):
            raise DivergenceError(
                "Neumann iteration diverged; reduce alpha or increase damp"
            )
        step = np.abs(v_next - v).sum()
        v = v_next
        if step <= cfg.zeta:
            break
    return v


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


def perturbed_params(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float, p: float
) -> tuple[Array, Array]:
    """params + worst-case perturbation of the full train loss; also the
    perturbation itself."""
    _, eps, _ = _sam_point(spec, *mod._split_rows(spec, dataset, "train"), params, rho, p)
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


def eps_jacobian_vec(
    spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float, p: float, v: Array
) -> Array:
    """Directional derivative of the worst-case perturbation: (d eps / d w) v.

    The closed form (d eps / d g) H v, exact for every p in (1, inf). A
    zero full-train gradient, or for p > 2 a zero gradient entry, makes
    the Jacobian singular and is rejected.
    """
    v = np.asarray(v, dtype=np.float64)
    if rho == 0.0:
        return np.zeros_like(v)
    g, _, apply_H = _sam_point(spec, *mod._split_rows(spec, dataset, "train"), params, rho, p)
    return _eps_grad_jacobian(g, rho, p)(apply_H(v))


def _linearize(
    spec: mod.ModelSpec, X: Array, y: Array, params: Array, rho: float, p: float, lam: float,
    total: bool,
) -> tuple[Array, LinearOperator, LinearOperator]:
    """The operator the Hessian estimators solve against, built once:
    A v = H_pert (v + J v) + lam v, with H_pert the full-train Hessian at
    the perturbed optimum and J = D H the perturbation's Jacobian (total
    only): H the full-train Hessian at params and D = d eps / d g, both
    symmetric, so J^T = H D. The transpose is A^T u = h + H (D h) + lam u
    with h = H_pert u; without J, A is symmetric and A^T is A itself. Both
    take one vector or a block of rows; g, eps and H are _sam_point's over
    the train split's checked rows X, y. Returns w_pert, A and A^T."""
    g, eps, apply_H = _sam_point(spec, X, y, params, rho, p)
    w_pert = params + eps
    _, apply_Hpert = mod.hvp_operator(spec, w_pert, X, y, 1.0 / y.size)
    if total and rho > 0.0:
        apply_D = _eps_grad_jacobian(g, rho, p)

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


def _removal_sets(n: int, ks, who: str) -> tuple[Array, LinearOperator]:
    """The removal sets ks, checked as loo_retrain_many checks its sets: their points, sorted
    and distinct, and the map from the points' rows to each set's sum (for one-point sets,
    each set's row, gathered)."""
    if all(isinstance(k, (int, np.integer)) for k in ks):
        points, inverse = np.unique(np.asarray(ks, dtype=np.int64), return_inverse=True)
        for k in points[[0, -1]] if points.size else ():  # every one-point set passes if these do
            _removal_set(n, k, who)
        return points, lambda rows: rows[inverse]
    sets = [_removal_set(n, S, who) for S in ks]
    points = np.unique(np.concatenate(sets))
    return points, lambda rows: np.array([np.isin(points, S) for S in sets], dtype=float) @ rows


def _influence(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
    queries: Array | None, who: str,
) -> Array:
    """The one estimator dispatch over removal sets ks, loo_retrain_many's:
    each one train position or several. Without queries: IF(S), the sum of
    IF(k) over S, one row per set. With queries (m, P): scores[len(ks), m]
    = -IF(S) . q. The Hessian estimators build one linearization and sum
    each set's point gradients into one right-hand side, solving A against
    it or A^T against every query; gif replays once, into each point's
    vector (_gif_vectors) or, with queries, straight into each point's
    scores (_gif_scores), and sums each set's rows. The train split and the
    sets are checked here, once; below, the points are sorted and distinct."""
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"unknown estimator {estimator!r}")
    if queries is not None:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != spec.param_count:
            raise InvalidInputError("queries must be (m, P) gradients of the model's parameters")
    X, y = mod._split_rows(spec, dataset, "train")
    points, by_set = _removal_sets(y.size, ks, who)
    if estimator == "gif":
        if trajectory is None:
            raise InvalidInputError("gif estimator needs a trajectory")
        if queries is None:
            return by_set(_gif_vectors(trajectory, spec, X, y, points, gif_mode))
        return by_set(_gif_scores(trajectory, spec, X, y, points, gif_mode, queries))
    w_pert, apply_A, apply_AT = _linearize(spec, X, y, params, rho, p, lam, estimator == "hif")
    if points.size == 0:
        return np.zeros((len(ks), spec.param_count if queries is None else queries.shape[0]))
    # One-example stacks, as in example_grads: a row does not depend on the other points.
    G = mod.stacked_loss_grad(spec, w_pert[None], X[points][:, None], y[points][:, None])[1]
    grads = by_set((1.0 / y.size) * G)
    if queries is None:
        return -_block_solve(apply_A, grads, ncfg)
    return grads @ _block_solve(apply_AT, queries, ncfg).T


def influence_vectors(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
) -> Array:
    """Influence vectors IF(S), one row per removal set in ks, in one pass: one
    solve per set for the Hessian estimators (HVP_BLOCK rows at a time), one
    trajectory replay for gif. A row does not depend on which other sets share the call."""
    return _influence(estimator, spec, dataset, params, rho, p, lam, ncfg, ks, trajectory,
                      gif_mode, None, "influence_vectors")


def influence_scores(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, ncfg: NeumannConfig, ks, trajectory: Trajectory | None, gif_mode: str,
    queries: Array,
) -> Array:
    """Influence scores scores[i, j] = -IF(ks[i]) . queries[j] for removal
    sets ks and m query gradients (m, P), e.g. a validation or test-point
    loss gradient; positive = removing the set is predicted to raise that loss.

    The Hessian estimators cost one transposed solve per query, not one
    solve per set: -IF(S) . q = g_S . A^-T q. gif costs one replay whose
    per-example gradients are projected onto the queries (m times the
    products influence_vectors spends adding them up), with no (len(ks), P)
    vectors; a point's scores do not depend on which others are scored."""
    return _influence(estimator, spec, dataset, params, rho, p, lam, ncfg, ks, trajectory,
                      gif_mode, queries, "influence_scores")


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
    at params[t], the perturbed point the trainer took update t's gradient
    at, with w_t the recorded per-example coefficient weights[t]. gd mode
    drops the batch-membership gate.

    One call replays the whole trajectory; for many points,
    influence_vectors or influence_scores replays it once for all of them.
    """
    ks = _removal_set(trajectory.n_train, k, "sam_gif")
    return _gif_vectors(trajectory, spec, *mod._split_rows(spec, dataset, "train"), ks, mode)[0]


def _gif_replay(
    trajectory: Trajectory, spec: mod.ModelSpec, X_train: Array, y_train: Array, points: Array,
    mode: str, add_block: Callable[[int, Array, list, Array], None],
) -> None:
    """gif's one replay, for the sorted, distinct train positions points, which
    its callers check, over the train split's checked rows X_train, y_train,
    with no per-step kernel call. The T steps are cut into windows of C
    consecutive steps, the same whatever points is, and the steps of a window
    that score a point make one block: one stacked_loss_factors call at
    their recorded perturbed points over a fixed-shape input, the step's
    batch in sgd mode and the whole train split in gd mode. C keeps a
    block's factors within GIF_BLOCK_FLOATS. add_block(first, sel, factors,
    hits) takes each block: its window's first step, its steps, their
    factors, and hits[c, j], the row of points that input row j of step
    sel[c] is, or -1. A batch entry outside 0..n_train-1 is rejected before
    any replay work."""
    if mode not in GIF_MODES:
        raise InvalidInputError(f"unknown gif mode {mode!r}")
    if trajectory.param_count != spec.param_count:
        raise InvalidInputError("trajectory parameter count does not match the model")
    n = y_train.size
    if n != trajectory.n_train:
        raise InvalidInputError("trajectory train size does not match the dataset")
    batches = trajectory.batches
    outside = ((batches < 0) | (batches >= n)).any(axis=1)
    if outside.any():
        raise InvalidInputError(f"step {np.argmax(outside)}: batch entry out of range 0..{n - 1}")
    sizes = spec.layer_sizes
    slot = np.full(n, -1)  # slot[k]: k's row of points, or -1 if k is not scored
    slot[points] = np.arange(points.size)
    T = len(batches)
    if mode == "sgd":
        scored, live = batches, (slot[batches] >= 0).any(axis=1)
    else:
        scored, live = np.broadcast_to(np.arange(n), (T, n)), np.full(T, points.size > 0)
    C = max(1, GIF_BLOCK_FLOATS // (scored.shape[1] * (sum(sizes[:-1]) + sum(sizes[1:]))))
    for first in range(0, T, C):
        sel = first + np.flatnonzero(live[first : first + C])
        if sel.size == 0:
            continue
        rows_in = scored[sel]
        factors = mod.stacked_loss_factors(spec, trajectory.params[sel],
                                           np.take(X_train, rows_in, axis=0), y_train[rows_in])[1]
        add_block(first, sel, factors, slot[rows_in])
        del factors  # held no longer than its block


def _gif_vectors(
    trajectory: Trajectory, spec: mod.ModelSpec, X_train: Array, y_train: Array, points, mode: str
) -> Array:
    """sam_gif for the sorted, distinct train positions points, which its callers
    check, over the train split's checked rows X_train, y_train, from one
    _gif_replay: _add_gif_terms adds each block's weighted per-example
    gradients into each point's row of contiguous per-layer sums, which are
    packed into the (len(points), P) result once, after the last block.

    A point's terms, and the order its row adds them in, do not depend on
    which other points are scored, so a row is bitwise the same whatever
    else points holds."""
    sizes = spec.layer_sizes
    sums = [(np.zeros((points.size, fan_out, fan_in)), np.zeros((points.size, fan_out)))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    _gif_replay(trajectory, spec, X_train, y_train, points, mode,
                lambda first, sel, factors, hits: _add_gif_terms(
                    sums, factors, hits, trajectory.weights[sel]))
    total = np.empty((points.size, spec.param_count))
    for layer, layer_sums in zip(mod._unpack_rows(spec, total), sums):
        for view, part in zip(layer, layer_sums):
            np.negative(part, out=view)
    return total


def _gif_scores(
    trajectory: Trajectory, spec: mod.ModelSpec, X_train: Array, y_train: Array, points,
    mode: str, queries: Array,
) -> Array:
    """scores[i, j] = -_gif_vectors(...)[i] . queries[j] for the sorted, distinct
    train positions points, which its callers check, and m query gradients (m, P),
    from one _gif_replay that _add_gif_scores projects onto the queries, with no
    per-point vector. The queries go in chunks of mq, so that one step's
    projection of a chunk (b' input rows times mq times 1 + the largest of
    the layers' smaller fans) fits GIF_BLOCK_FLOATS where one query's does,
    and the steps in runs of span, whose chunk projections fit it too.
    A row is bitwise the same whatever else points holds."""
    m = queries.shape[0]
    scores = np.zeros((points.size, m))
    sizes = spec.layer_sizes
    rows = trajectory.batches.shape[1] if mode == "sgd" else y_train.size
    width = 1 + max(map(min, sizes[:-1], sizes[1:]))
    mq = max(1, min(m, GIF_BLOCK_FLOATS // (rows * width)))
    span = max(1, GIF_BLOCK_FLOATS // (rows * mq * width))
    chunks = [(slice(q, min(q + mq, m)), [_query_operand(Wq, bq) for Wq, bq in
                                          mod._unpack_rows(spec, queries[q : q + mq])])
              for q in range(0, m, mq)]
    _gif_replay(trajectory, spec, X_train, y_train, points, mode,
                lambda first, sel, factors, hits: _add_gif_scores(
                    scores, chunks, span, first, sel, factors, hits, trajectory.weights))
    return scores


def _query_operand(Wq: Array, bq: Array) -> tuple[Array, Array | None]:
    """One layer of m queries, Wq (m, fan_out, fan_in) and bq (m, fan_out),
    as a (fan, m * other) matrix over the larger fan, for _add_gif_scores,
    and the flat biases; over fan_out, the biases are m more columns and
    None is returned for them."""
    if Wq.shape[2] >= Wq.shape[1]:
        return Wq.transpose(2, 0, 1).reshape(Wq.shape[2], -1), bq.reshape(-1)
    return np.hstack([Wq.transpose(1, 0, 2).reshape(Wq.shape[1], -1), bq.T]), None


def _add_gif_scores(
    scores: Array, chunks: list[tuple[slice, list]], span: int, first: int, sel: Array,
    factors: list[tuple[Array, Array]], hits: Array, weights: Array,
) -> None:
    """Point u's scores += weights[t] * (the example gradient of factor row
    (c, j)) . each query, for every row with hits[c, j] = u and t = sel[c];
    chunks holds each chunk of query columns with its layers'
    _query_operand. Per layer, delta^T Q a + delta . q_b of every input row
    is one matmul of the factor of the larger fan against the operand,
    reshaped to (rows, mq, other), and one per-row batched matmul against
    the other factor; the scored rows then add into scores through one
    bincount, in step order. Every row is projected and each step is its
    own matmul, so a row's products do not depend on which rows are
    scored. The steps go in runs of span window positions from first, so
    a point's sum is grouped the same whatever sel is."""
    b = hits.shape[1]
    cuts = np.flatnonzero(np.diff((sel - first) // span)) + 1
    for lo, hi in zip((0, *cuts), (*cuts, sel.size)):
        rows = (hi - lo) * b
        hit = hits[lo:hi].ravel()
        scored = hit >= 0
        points = hit[scored][:, None]
        row_weights = np.repeat(weights[sel[lo:hi]], b)[:, None]
        for cols, operands in chunks:
            mq = cols.stop - cols.start
            s = np.zeros((rows, mq))
            for (d, a), (M, bias) in zip(factors, operands):
                x, other = (d, a) if bias is None else (a, d)
                t = (x[lo:hi] @ M).reshape(rows, -1)
                k = mq * other.shape[-1]
                if bias is None:
                    s += t[:, k:]  # delta . q_b
                else:
                    t += bias  # delta^T (Q a + q_b), below
                s += (t[:, :k].reshape(rows, mq, -1) @ other[lo:hi].reshape(rows, -1, 1))[..., 0]
            s *= row_weights
            at = (points * mq + np.arange(mq)).ravel()
            scores[:, cols] += np.bincount(at, s[scored].ravel(), len(scores) * mq).reshape(-1, mq)


def _add_gif_terms(
    sums: list[tuple[Array, Array]], factors: list[tuple[Array, Array]], hits: Array,
    weights: Array,
) -> None:
    """Point u's sums += weights[c] * (the example gradient of factor row
    (c, j)) for every row of the block with hits[c, j] = u; sums[l] holds
    layer l's contiguous weight sums (u, fan_out, fan_in) and bias sums
    (u, fan_out). The rows are sorted by point, each point's in step
    order, and a chunk of K consecutive points gathers its weighted delta
    rows D and a rows A into (K, S, fan) stacks, zero-padded to the most
    rows S any of them has (at least 2: NumPy's matmul leaves BLAS for an
    inner dimension of 1). Per layer one batched D^T A matmul and one sum
    of D over S then add into the chunk's rows of the layer's sums. K
    keeps a chunk's gradients and gathered factors within
    GIF_BLOCK_FLOATS."""
    c, j = np.nonzero(hits >= 0)  # step-major
    pts = hits[c, j]
    order = np.argsort(pts, kind="stable")  # by point, then step
    c, j, pts = c[order], j[order], pts[order]
    n_points = sums[0][1].shape[0]
    counts = np.bincount(pts, minlength=n_points)
    rank = np.arange(pts.size) - (np.cumsum(counts) - counts)[pts]
    fan_sum = sum(d.shape[-1] + a.shape[-1] for d, a in factors)
    P = sum(W[0].size + b[0].size for W, b in sums)
    K = max(1, GIF_BLOCK_FLOATS // max(P, max(2, int(counts.max())) * fan_sum))
    for lo in range(int(pts[0]), int(pts[-1]) + 1, K):
        hi = min(lo + K, n_points)
        s0, s1 = np.searchsorted(pts, [lo, hi])
        if s0 == s1:
            continue
        S = max(2, int(counts[lo:hi].max()))
        at = (pts[s0:s1] - lo, rank[s0:s1])
        cs, js = c[s0:s1], j[s0:s1]
        for (W_sum, b_sum), (d, a) in zip(sums, factors):
            D = np.zeros((hi - lo, S, d.shape[-1]))
            A = np.zeros((hi - lo, S, a.shape[-1]))
            D[at] = d[cs, js] * weights[cs, None]
            A[at] = a[cs, js]
            W_sum[lo:hi] += D.swapaxes(1, 2) @ A
            b_sum[lo:hi] += D.sum(axis=1)


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
    _, gval = mod.subset_loss_grad(spec, params, dataset, val_indices, 1.0)
    return -float(gval @ np.asarray(ifvec, dtype=np.float64))


def compute_influence(
    estimator: str, spec: mod.ModelSpec, dataset: mod.Dataset, params: Array, rho: float,
    p: float, lam: float, k: int, ncfg: NeumannConfig, trajectory: Trajectory | None = None,
    gif_mode: str = "sgd",
) -> tuple[Array, float]:
    """One estimator for one training point k: its influence vector,
    influence_vectors' one-row case, and that vector's influence_score
    over the validation split."""
    ifvec = influence_vectors(estimator, spec, dataset, params, rho, p, lam, ncfg, [k],
                              trajectory, gif_mode)[0]
    return ifvec, influence_score(spec, params, dataset, dataset.indices("val"), ifvec)
