"""Dense reference scores for the solve-based estimators.

Builds the exact linear system the Neumann solver approximates, from the
package's own building blocks and with no Neumann solve, and solves it
with LAPACK:

* if-fast: score_k = g_k . (H + (lam + damp) I)^-1 g_val
* hif:     score_k = g_k . A^-T g_val, with A = H + lam I + H J_eps + damp I

H is the full-train Hessian at the perturbed optimum, g_k the k-th
training gradient there (weight 1/n), g_val the summed validation gradient
at the trained parameters and J_eps the Jacobian of the worst-case
perturbation. Scores follow the package convention (positive = valuable).
"""

from __future__ import annotations

import numpy as np

# A score misses the reference when |score - ref| > REL_TOL * max|ref|.
REL_TOL = 1e-6


def reference_scores(config_path: str, estimator: str) -> np.ndarray:
    """Reference scores for every training point of one config."""
    from samattr import experiments, influence, oracle
    from samattr import model as mod
    from samattr.samtrain import train_sam

    cfg = experiments.load_config(config_path)
    spec, ds, sam = experiments.setup(cfg)
    params, _ = train_sam(spec, ds, sam)
    ncfg = cfg.neumann()
    rows = ds.indices("train")
    scale = 1.0 / rows.size
    w_pert, _ = influence.perturbed_params(spec, ds, params, sam.rho, sam.p)
    H = oracle.dense_hessian(spec, w_pert, ds, lam=0.0)
    G = np.stack([mod.subset_loss_grad(spec, w_pert, ds, r, scale)[1] for r in rows])
    _, g_val = mod.subset_loss_grad(spec, params, ds, ds.indices("val"), 1.0)
    P = spec.param_count
    A = H + (sam.lam + ncfg.damp) * np.eye(P)
    if estimator == "hif" and sam.rho > 0.0:
        J = np.column_stack(
            [influence.eps_jacobian_vec(spec, ds, params, sam.rho, sam.p, e) for e in np.eye(P)]
        )
        A = A + H @ J
    return G @ np.linalg.solve(A.T, g_val)


def misses(scores: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-point mask of scores that are non-finite or off the reference."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = ~np.isfinite(scores)
    tol = REL_TOL * float(np.max(np.abs(ref)))
    with np.errstate(invalid="ignore"):
        bad |= ~(np.abs(scores - ref) <= tol)
    return bad
