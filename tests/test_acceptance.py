"""Acceptance suite: every top-level guarantee the package makes, run at
its stated tolerance. Each test prints an explicit PASS/FAIL line (visible
under pytest -s) in addition to asserting, so the suite doubles as a
checklist when run standalone.
"""

import time

import numpy as np

from samattr import model as mod
from samattr.cli import main as cli_main
from samattr.datasets import flip_labels, make_blobs
from samattr.experiments import (
    ExperimentConfig,
    rank_ascending,
    rank_descending,
    score_all,
)
from samattr.influence import NeumannConfig, neumann_ihvp, sam_gif, sam_hif, sam_if_fast
from samattr.model import ModelSpec
from samattr.numcore import p_norm, sample_batches
from samattr.oracle import calibrate_estimator, dense_hessian, loo_retrain
from samattr.samtrain import SAMConfig, train_sam, worst_perturbation

# Shared tuning for the oracle-comparison tests: strongly regularized
# full-batch SAM on two-class Gaussian blobs. The strong L2 term keeps
# the problem well-conditioned, which all three estimators assume.
SUITE_DATASET = dict(n=200, d=10, C=2, sep=3.0, seed=1)
SUITE_SAM = dict(rho=0.05, p=2.0, lam=1.0, eta=0.5, batch_size=200, steps=60, seed=1)
NCFG = NeumannConfig(order=2000, zeta=1e-11)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def suite_problem():
    ds = make_blobs(**SUITE_DATASET)
    spec = ModelSpec(kind="logistic", layer_sizes=(10, 2))
    sam = SAMConfig(**SUITE_SAM)
    return spec, ds, sam


def exp_config() -> ExperimentConfig:
    return ExperimentConfig(estimator="if_fast", neumann_order=2000)


def test_gradient_audit():
    """Reverse-mode gradients match central finite differences to < 1e-4
    across ten random model/data draws, in under ten seconds."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            spec = ModelSpec(kind="logistic", layer_sizes=(4, 3))
        else:
            act = "tanh" if seed % 4 == 1 else "relu"
            spec = ModelSpec(kind="mlp", layer_sizes=(4, 5, 3), activation=act)
        X = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, size=8)
        ds = mod.Dataset(features=X, labels=y)
        params = mod.init_params(spec, seed)
        idx = np.arange(8)
        _, g = mod.subset_loss_grad(spec, params, ds, idx, 1.0)
        h = 1e-6
        g_fd = np.empty_like(g)
        for i in range(g.size):
            e = np.zeros_like(g)
            e[i] = h
            lp, _ = mod.subset_loss_grad(spec, params + e, ds, idx, 1.0)
            lm, _ = mod.subset_loss_grad(spec, params - e, ds, idx, 1.0)
            g_fd[i] = (lp - lm) / (2.0 * h)
        denom = max(np.abs(g_fd).max(), 1.0)
        worst = max(worst, float(np.abs(g - g_fd).max() / denom))
    elapsed = time.perf_counter() - start
    report(
        "gradient audit",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.3e} (< 1e-4), {elapsed:.2f}s (< 10s)",
    )


def test_hvp_audit():
    """Matrix-free HVPs agree with dense Hessian matvecs to < 1e-8 and
    are symmetric bilinear forms to 1e-10."""
    worst_mv, worst_sym = 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        spec = ModelSpec(kind="mlp", layer_sizes=(3, 4, 3))  # P = 31 <= 50
        X = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, size=10)
        ds = mod.Dataset(features=X, labels=y)
        params = mod.init_params(spec, seed)
        idx = np.arange(10)
        H = dense_hessian(spec, params, ds, lam=0.0, indices=idx, scale=1.0)
        v = rng.standard_normal(spec.param_count)
        u = rng.standard_normal(spec.param_count)
        hv = mod.hvp(spec, params, ds, idx, v, 1.0)
        denom = max(np.abs(H @ v).max(), 1.0)
        worst_mv = max(worst_mv, float(np.abs(hv - H @ v).max() / denom))
        uhv = float(u @ mod.hvp(spec, params, ds, idx, v, 1.0))
        vhu = float(v @ mod.hvp(spec, params, ds, idx, u, 1.0))
        worst_sym = max(worst_sym, abs(uhv - vhu) / max(abs(uhv), 1.0))
    report(
        "hvp audit",
        worst_mv < 1e-8 and worst_sym < 1e-10,
        f"matvec error {worst_mv:.3e} (< 1e-8), asymmetry {worst_sym:.3e} (< 1e-10)",
    )


def test_perturbation_boundary():
    """The closed-form ascent direction lands exactly on the rho-ball
    boundary for p in {1.5, 2, 4}; degenerate inputs give zero."""
    rng = np.random.default_rng(7)
    rho = 0.25
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal(rng.integers(2, 50))
        for p in (1.5, 2.0, 4.0):
            eps = worst_perturbation(g, rho, p)
            worst = max(worst, abs(p_norm(eps, p) - rho))
    zero_ok = np.all(worst_perturbation(rng.standard_normal(5), 0.0, 2.0) == 0.0) and np.all(
        worst_perturbation(np.zeros(5), rho, 2.0) == 0.0
    )
    report(
        "perturbation boundary",
        worst < 1e-10 and zero_ok,
        f"max |norm - rho| {worst:.3e} (< 1e-10), degenerate cases zero: {zero_ok}",
    )


def test_sam_degenerates_to_sgd():
    """rho = 0 reduces the trainer to plain SGD with L2, step-identical
    over 500 minibatch updates."""
    ds = make_blobs(60, 5, 3, 2.0, seed=2)
    spec = ModelSpec(kind="mlp", layer_sizes=(5, 8, 3))
    cfg = SAMConfig(rho=0.0, lam=0.01, eta=0.1, batch_size=10, steps=500, seed=4)
    w_sam, _ = train_sam(spec, ds, cfg)
    rows = ds.indices("train")
    sched = sample_batches(rows.size, cfg.batch_size, cfg.steps, cfg.seed)
    w = mod.init_params(spec, cfg.seed)
    for t in range(cfg.steps):
        batch = sched[t]
        _, g = mod.subset_loss_grad(spec, w, ds, rows[batch], 1.0 / batch.size)
        w = w - cfg.eta_at(t) * (g + cfg.lam * w)
    identical = bool(np.array_equal(w_sam, w))
    report("SAM degeneracy", identical, f"rho=0 trainer == SGD over 500 steps: {identical}")


def test_neumann_solver():
    """The truncated Neumann iteration matches a direct dense solve on
    damped SPD systems within J = 500, and early stopping leaves a
    residual below 10x the stop threshold."""
    worst_rel = 0.0
    worst_resid_ratio = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        M = rng.standard_normal((20, 20))
        A = M @ M.T / 20.0 + 0.05 * np.eye(20)
        g = rng.standard_normal(20)
        damp = 0.01
        zeta = 1e-10
        cfg = NeumannConfig(order=500, damp=damp, zeta=zeta)
        v = neumann_ihvp(lambda x: A @ x, g, cfg)
        exact = np.linalg.solve(A + damp * np.eye(20), g)
        worst_rel = max(worst_rel, float(np.linalg.norm(v - exact) / np.linalg.norm(exact)))
        # With an uncapped iteration count the early stop triggers on the
        # zeta rule; the final L1 step is alpha times the residual, and
        # the auto step size keeps 10*zeta as a valid residual bound.
        v_stop = neumann_ihvp(lambda x: A @ x, g, NeumannConfig(order=10**6, damp=damp, zeta=zeta))
        resid = np.abs((A + damp * np.eye(20)) @ v_stop - g).sum()
        worst_resid_ratio = max(worst_resid_ratio, resid / (10.0 * zeta))
    report(
        "Neumann solver",
        worst_rel < 1e-3 and worst_resid_ratio < 1.0,
        f"relative error {worst_rel:.3e} (< 1e-3), residual within 10*zeta allowance: "
        f"ratio {worst_resid_ratio:.3f} (< 1)",
    )


def test_estimator_calibration_full_loo_sweep():
    """Full leave-one-out sweep on two-class blobs: all three estimators
    rank and sign the actual validation-loss changes accurately, within
    the fifteen-minute budget."""
    start = time.perf_counter()
    spec, ds, sam = suite_problem()
    thresholds = {"if_fast": 0.9, "hif": 0.9, "gif": 0.85}
    results = {}
    for est, spearman_min in thresholds.items():
        rep = calibrate_estimator(spec, ds, sam, est, sample_size=200, ncfg=NCFG, gif_mode="gd")
        results[est] = rep
    elapsed = time.perf_counter() - start
    ok = elapsed < 900.0
    details = []
    for est, spearman_min in thresholds.items():
        rep = results[est]
        est_ok = rep.spearman > spearman_min and rep.sign_agreement >= 0.9
        ok = ok and est_ok
        details.append(
            f"{est} spearman {rep.spearman:.3f} (> {spearman_min}), "
            f"sign {rep.sign_agreement:.3f} (>= 0.9)"
        )
    report(
        "estimator calibration",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s (< 900s)",
    )


def test_gif_displacement_identity():
    """With full-batch GD, rho = 0, lambda = 0, the per-point trajectory
    influences telescope exactly into the total parameter displacement."""
    ds = make_blobs(25, 3, 2, 2.0, seed=14)
    spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
    cfg = SAMConfig(rho=0.0, lam=0.0, eta=0.3, batch_size=25, steps=80, seed=14)
    w, traj = train_sam(spec, ds, cfg)
    w0 = mod.init_params(spec, cfg.seed)
    total = np.zeros(spec.param_count)
    for k in range(25):
        total += sam_gif(traj, spec, ds, k, mode="gd")
    err = float(np.abs(total - (w - w0)).max())
    report("GIF displacement identity", err < 1e-8, f"max deviation {err:.3e} (< 1e-8)")


def test_hif_equals_if_fast_at_rho_zero():
    """At rho = 0 the perturbation Jacobian term vanishes, so the two
    Hessian-based estimators coincide to 1e-9."""
    ds = make_blobs(40, 4, 2, 2.0, seed=12)
    spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
    cfg = SAMConfig(rho=0.0, lam=0.05, eta=0.5, batch_size=40, steps=1500, seed=12)
    params, _ = train_sam(spec, ds, cfg)
    ncfg = NeumannConfig(order=5000, zeta=1e-14)
    worst = 0.0
    for k in range(0, 40, 5):
        a = sam_if_fast(spec, ds, params, 0.0, 2.0, cfg.lam, k, ncfg)
        b = sam_hif(spec, ds, params, 0.0, 2.0, cfg.lam, k, ncfg)
        worst = max(worst, float(np.abs(a - b).max()))
    report("HIF/IF agreement at rho=0", worst < 1e-9, f"max deviation {worst:.3e} (< 1e-9)")


def test_noise_detection():
    """Ten percent of train labels flipped: inspecting the worst-scored
    40% of points recovers at least 80% of the flips, while a random
    inspection hovers near 40%."""
    spec, ds, sam = suite_problem()
    noisy, flipped = flip_labels(ds, 0.1, seed=1)
    params, traj = train_sam(spec, noisy, sam)
    scores, _ = score_all(exp_config(), spec, noisy, sam, params, traj)
    n = scores.size
    inspected = set(rank_ascending(scores)[: int(0.4 * n)].tolist())
    recall = sum(1 for i in flipped if int(i) in inspected) / flipped.size
    rand_recalls = []
    for s in range(20):
        perm = np.random.default_rng([1, 0x4E, s]).permutation(n)
        chosen = set(perm[: int(0.4 * n)].tolist())
        rand_recalls.append(sum(1 for i in flipped if int(i) in chosen) / flipped.size)
    rand_mean = float(np.mean(rand_recalls))
    ok = recall >= 0.8 and 0.3 <= rand_mean <= 0.5
    report(
        "noise detection",
        ok,
        f"influence recall@40% {recall:.2f} (>= 0.8), random {rand_mean:.2f} (0.4 +/- 0.1)",
    )


def test_model_editing():
    """A single-point edit lands within 5% of the retrained parameters;
    a batch edit of the bottom-decile points matches the retrained test
    accuracy within 0.05."""
    spec, ds, sam = suite_problem()
    params, traj = train_sam(spec, ds, sam)
    k = 7
    ifvec = sam_if_fast(spec, ds, params, sam.rho, sam.p, sam.lam, k, NCFG)
    w_loo = loo_retrain(spec, ds, k, sam)
    rel = float(np.linalg.norm((params - ifvec) - w_loo) / np.linalg.norm(params))

    scores, ifvecs = score_all(exp_config(), spec, ds, sam, params, traj)
    removed = rank_ascending(scores)[: scores.size // 10]
    w_edit = params - ifvecs[removed].sum(axis=0)
    w_retrain = loo_retrain(spec, ds, removed, sam)
    acc_gap = abs(
        mod.accuracy(spec, w_edit, ds, "test") - mod.accuracy(spec, w_retrain, ds, "test")
    )
    ok = rel < 0.05 and acc_gap <= 0.05
    report(
        "model editing",
        ok,
        f"single-point distance {rel:.4f} of ||w*|| (< 0.05), "
        f"batch-edit accuracy gap {acc_gap:.3f} (<= 0.05)",
    )


def test_valuation_direction():
    """Across five seeds, removing the top-valuable decile hurts test
    accuracy strictly more on average than removing a random decile."""
    spec = ModelSpec(kind="logistic", layer_sizes=(10, 2))
    cfg = exp_config()
    drops_top, drops_rand = [], []
    for seed in range(5):
        ds = make_blobs(200, 10, 2, 3.0, seed=seed)
        sam = SAMConfig(**{**SUITE_SAM, "seed": seed})
        params, traj = train_sam(spec, ds, sam)
        base = mod.accuracy(spec, params, ds, "test")
        scores, _ = score_all(cfg, spec, ds, sam, params, traj)
        top = rank_descending(scores)[:20]
        rand = np.random.default_rng([seed, 0x7A]).choice(200, size=20, replace=False)
        drops_top.append(base - mod.accuracy(spec, loo_retrain(spec, ds, top, sam), ds, "test"))
        drops_rand.append(base - mod.accuracy(spec, loo_retrain(spec, ds, rand, sam), ds, "test"))
    mean_top, mean_rand = float(np.mean(drops_top)), float(np.mean(drops_rand))
    report(
        "valuation direction",
        mean_top > mean_rand,
        f"mean accuracy drop: top-valuable {mean_top:.4f} > random {mean_rand:.4f}",
    )


def test_cli_determinism(tmp_path, capsys):
    """Every CLI experiment, rerun with the same seed, emits byte-identical
    plot-data files."""
    base = dict(
        dataset="blobs(24, 4, 2, 2.5, 3)",
        lam=0.2,
        eta=0.5,
        steps=80,
        batch_size=0,
        seed=3,
        neumann_order=2000,
        sample_size=6,
    )
    commands = {
        "train": {},
        "attribute": {},
        "valuate": {"removal_fractions": "0.1"},
        "detect-noise": {"flip_fraction": 0.1, "removal_fractions": "0.1"},
        "trace": {"dataset": "blobs(24, 4, 2, 1.0, 3)", "max_trace_points": 1},
        "edit": {"edit_indices": "0,2"},
        "calibrate": {},
    }
    all_ok = True
    checked = 0
    for command, extra in commands.items():
        plots = []
        for attempt in ("first", "second"):
            conf = dict(base, out=str(tmp_path / command / attempt), **extra)
            path = tmp_path / f"{command}_{attempt}.conf"
            path.write_text("".join(f"{k} = {v}\n" for k, v in conf.items()))
            code = cli_main([command, "--config", str(path)])
            out = capsys.readouterr().out
            assert code == 0, f"{command} exited {code}"
            plots.append(sorted(p for p in out.splitlines() if p.endswith(".tsv")))
        for a, b in zip(plots[0], plots[1]):
            checked += 1
            if open(a, "rb").read() != open(b, "rb").read():
                all_ok = False
    with capsys.disabled():
        report(
            "CLI determinism",
            all_ok and checked > 0,
            f"{checked} plot-data files byte-identical across reruns of all 7 subcommands",
        )
