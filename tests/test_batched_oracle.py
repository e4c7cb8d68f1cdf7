"""The stacked removal oracle: R replicas trained as one (R, P) SAM run.

Every replica row must be bitwise what a run of its own gives. The
reference here is a frozen plain loop (one 2-D gradient kernel, one
1-D perturbation, one replica per run) kept apart from the package
code, so a change to the shared trainer cannot move both sides at once.
"""

import itertools
import os
import sys
import threading

import numpy as np
import pytest

from samattr import experiments, oracle, samtrain
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import ConfigError, DivergenceError, InvalidInputError
from samattr.model import Dataset, ModelSpec
from samattr.numcore import sample_batches
from samattr.oracle import loo_retrain, loo_retrain_many, loo_schedule
from samattr.samtrain import SAMConfig, train_sam, worst_perturbation

SPECS = {
    "logistic": ModelSpec("logistic", (4, 3)),
    "tanh": ModelSpec("mlp", (4, 6, 3), "tanh"),
    "relu": ModelSpec("mlp", (4, 5, 4, 3), "relu"),
}


def _plain_loss_grad(spec, w, X, y):
    """Summed loss and gradient over one batch, one parameter vector."""
    sizes, layers, off = spec.layer_sizes, [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = w[off : off + fan_in * fan_out].reshape(fan_out, fan_in)
        off += fan_in * fan_out
        layers.append((W, w[off : off + fan_out]))
        off += fan_out
    acts = [X]
    for l, (W, b) in enumerate(layers):
        Z = acts[-1] @ W.T + b
        if l < len(layers) - 1:
            Z = np.tanh(Z) if spec.activation == "tanh" else np.maximum(Z, 0.0)
        acts.append(Z)
    Z = acts[-1]
    m = Z - Z.max(axis=1, keepdims=True)
    logp = m - np.log(np.exp(m).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(len(y)), y].sum())
    delta = np.exp(logp)
    delta[np.arange(len(y)), y] -= 1.0
    grads = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        grads[l] = (delta.T @ acts[l], delta.sum(axis=0))
        if l > 0:
            A = acts[l]
            deriv = 1.0 - A * A if spec.activation == "tanh" else (A > 0.0).astype(np.float64)
            delta = deriv * (delta @ layers[l][0])
    return loss, np.concatenate([np.concatenate([W.ravel(), b]) for W, b in grads])


def _plain_worst_perturbation(g, rho, p):
    if rho == 0.0 or not np.any(g):
        return np.zeros_like(g)
    if p == 2.0:
        return rho * g / float(np.sqrt(np.dot(g, g)))
    q = p / (p - 1.0)
    a = np.abs(g)
    a = a / a.max()
    num = np.sign(g) * np.power(a, q - 1.0)
    return rho * num / np.power(np.power(a, q).sum(), 1.0 / p)


def _plain_train_sam(spec, ds, cfg, schedule=None, loss_scale=1.0):
    """One replica, one step at a time: params and (step, w + eps, eta,
    batch, weight) per recorded step, w + eps the perturbed point the
    step's second gradient is taken at."""
    rows = ds.indices("train")
    if schedule is None:
        schedule = sample_batches(rows.size, cfg.batch_size, cfg.steps, cfg.seed, cfg.epoch_shuffled)
    w = mod.init_params(spec, cfg.seed)
    record = []
    for t in range(cfg.steps):
        batch = schedule[t]
        eta, scale = cfg.eta_at(t), loss_scale / batch.size
        X, y = ds.features[rows[batch]], ds.labels[rows[batch]]
        _, g = _plain_loss_grad(spec, w, X, y)
        eps = _plain_worst_perturbation(scale * g, cfg.rho, cfg.p)
        _, g_pert = _plain_loss_grad(spec, w + eps, X, y)
        g_sam = scale * g_pert + cfg.lam * w
        record.append((t, w + eps, eta, batch.copy(), eta * scale))
        w = w - eta * g_sam
    return w, record


def _without_train_points(ds, S):
    """ds without the train-split rows at positions S; other splits kept."""
    keep = np.ones(ds.n, dtype=bool)
    keep[ds.indices("train")[np.asarray(S, dtype=np.int64)]] = False
    return Dataset(ds.features[keep], ds.labels[keep], ds.split[keep])


def _plain_retrain(spec, ds, removed, cfg):
    """Removal retrain spelled out: replayed schedule, reduced dataset,
    per-example weight 1/n."""
    n = ds.indices("train").size
    S = np.atleast_1d(removed)
    schedule = loo_schedule(n, S, cfg)
    w, _ = _plain_train_sam(spec, _without_train_points(ds, S), cfg, schedule, (n - S.size) / n)
    return w


def _plain_replayed_steps(base, n, S, config):
    """The replay as one Generator.choice call per resampled slot, looping
    over the steps that hold a removed point and over their slots."""
    is_removed = np.zeros(n, dtype=bool)
    is_removed[S] = True
    T, b = base.shape
    if b == n:
        return np.broadcast_to(np.flatnonzero(~is_removed), (T, n - S.size))
    rng = np.random.default_rng([config.seed & 0xFFFFFFFF, *S.tolist(), 0x10E])
    hit = is_removed[base]
    steps = base.copy() if b <= n - S.size else np.empty((T, n - S.size), dtype=np.int64)
    for t in np.flatnonzero(hit.any(axis=1)):
        batch, free = base[t].copy(), ~is_removed
        free[batch] = False
        for slot in np.flatnonzero(hit[t]):
            candidates = np.flatnonzero(free)
            if not candidates.size:  # this slot and the later ones are dropped
                break
            batch[slot] = rng.choice(candidates)
            free[batch[slot]] = False
        steps[t] = np.sort(batch[~is_removed[batch]])
    return steps


def _assert_replays_equal(n, sets, cfg):
    base = cfg.schedule(n)
    for S in sets:
        S = np.sort(np.asarray(S, dtype=np.int64))
        got, ref = oracle._replayed_steps(base, n, S, cfg), _plain_replayed_steps(base, n, S, cfg)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), S.tolist()


def _problem(kind, seed=0, n=24):
    spec = SPECS[kind]
    return spec, make_blobs(n, spec.input_dim, spec.num_classes, 2.0, seed=seed)


def _cfg(schedule, n, **kw):
    base = dict(rho=0.05, p=2.0, lam=0.01, eta=0.2, batch_size=6, steps=25, seed=3)
    if schedule == "full":
        base["batch_size"] = n
    elif schedule == "epoch":
        base.update(batch_size=5, epoch_shuffled=True)
    base.update(kw)
    return SAMConfig(**base)


def _assert_rows_equal(spec, ds, sets, cfg):
    W = loo_retrain_many(spec, ds, sets, cfg)
    assert W.shape == (len(sets), spec.param_count)
    for row, S in zip(W, sets):
        assert np.array_equal(row, loo_retrain(spec, ds, S, cfg))
        assert np.array_equal(row, _plain_retrain(spec, ds, S, cfg))


@pytest.mark.parametrize("n,b,steps", [(80, 16, 300), (400, 32, 300), (80, 16, 3)])
def test_replay_matches_plain_loop_for_every_leave_one_out_set(n, b, steps):
    # The nonconvex-mlp-solve and minibatch-mlp-oracle benchmark shapes, and
    # a short run that never draws most points; the empty set replays the run.
    cfg = SAMConfig(batch_size=b, steps=steps, seed=17)
    _assert_replays_equal(n, [[]] + [[k] for k in range(n)], cfg)


@pytest.mark.parametrize("b,epoch_shuffled,seed", [
    (6, False, 5), (16, False, 5), (23, False, 6), (5, True, 7), (16, True, 8),
    (6, False, 2**32 + 5), (16, False, 2**40 + 3),
])
def test_replay_matches_plain_loop_for_sets_of_every_size(b, epoch_shuffled, seed):
    # Sizes 2..n-1 cover b <= n-|S| (each removed slot resampled) and
    # b > n-|S| (candidates run out mid-step and the later slots are
    # dropped); a seed of 2**32 or more enters the stream as its low 32 bits.
    n = 24
    cfg = SAMConfig(batch_size=b, steps=40, seed=seed, epoch_shuffled=epoch_shuffled)
    rng = np.random.default_rng(seed)
    sets = [rng.choice(n, size=k, replace=False) for k in range(2, n) for _ in range(3)]
    _assert_replays_equal(n, sets, cfg)


def test_worst_perturbation_rows_are_independent():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 30)) * np.array([[1e-6], [1.0], [3e2], [1.0], [7.0]])
    G[3] = 0.0
    for p in (1.5, 2.0, 3.0):
        for rho in (0.0, 0.07):
            E = worst_perturbation(G, rho, p)
            for g, e in zip(G, E):
                assert np.array_equal(e, _plain_worst_perturbation(g, rho, p))


@pytest.mark.parametrize("kind", list(SPECS))
def test_stacked_kernel_rows_match_plain_kernel(kind):
    spec, ds = _problem(kind)
    rng = np.random.default_rng(1)
    W = 0.5 * rng.standard_normal((4, spec.param_count))
    idx = np.stack([np.sort(rng.choice(ds.n, size=7, replace=False)) for _ in W])
    loss, G = mod.stacked_loss_grad(spec, W, ds.features[idx], ds.labels[idx])
    for r in range(len(W)):
        ref_loss, ref_grad = _plain_loss_grad(spec, W[r], ds.features[idx[r]], ds.labels[idx[r]])
        assert loss[r] == ref_loss and np.array_equal(G[r], ref_grad)


@pytest.mark.parametrize("kind,schedule,p", [
    ("logistic", "mini", 2.0), ("tanh", "full", 3.0), ("relu", "epoch", 2.0), ("tanh", "mini", 3.0),
])
def test_train_sam_matches_plain_loop(kind, schedule, p):
    spec, ds = _problem(kind)
    cfg = _cfg(schedule, ds.indices("train").size, p=p)
    w, traj = train_sam(spec, ds, cfg)
    ref_w, ref_record = _plain_train_sam(spec, ds, cfg)
    assert np.array_equal(w, ref_w)
    assert traj.total_steps == len(ref_record)
    for t, params, eta, batch, weight in ref_record:
        assert (traj.etas[t], traj.weights[t]) == (eta, weight)
        assert np.array_equal(traj.params[t], params) and np.array_equal(traj.batches[t], batch)
    assert np.array_equal(traj.params[-1], ref_w)


@pytest.mark.parametrize("kind,schedule,p", [
    ("logistic", "mini", 2.0), ("logistic", "full", 3.0), ("tanh", "mini", 3.0),
    ("tanh", "epoch", 2.0), ("relu", "full", 2.0), ("relu", "mini", 2.0),
])
def test_rows_equal_per_set_retrains(kind, schedule, p):
    spec, ds = _problem(kind)
    cfg = _cfg(schedule, ds.indices("train").size, p=p)
    _assert_rows_equal(spec, ds, [0, 7, [3], 23, [5, 11]], cfg)


@pytest.mark.parametrize("schedule", ["mini", "near-full", "full"])
def test_sets_of_mixed_sizes_in_one_call(schedule):
    # near-full: b = n-2, so sets of 1 and 2 points keep batch b and sets of
    # 3 and 5 shrink it; with a full batch every size is its own group.
    spec, ds = _problem("tanh", seed=2)
    n = ds.indices("train").size
    cfg = _cfg("mini", n, batch_size={"mini": 6, "near-full": n - 2, "full": n}[schedule])
    sets = [[4, 9, 13], 2, [0, 1, 2, 3, 20], [8, 22], 17, [6, 12, 18]]
    _assert_rows_equal(spec, ds, sets, cfg)


def test_block_boundary(monkeypatch):
    spec, ds = _problem("logistic", seed=4, n=oracle.RETRAIN_BLOCK + 8)
    cfg = _cfg("mini", ds.indices("train").size, steps=10)
    sets = list(range(oracle.RETRAIN_BLOCK + 3))
    W = loo_retrain_many(spec, ds, sets, cfg)
    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 2)
    sets_small = [[1, 2], 5, 9, [0, 3], 14]
    W_small = loo_retrain_many(spec, ds, sets_small, cfg)
    for k in (0, len(sets) // 2, len(sets) - 1):
        assert np.array_equal(W[k], _plain_retrain(spec, ds, sets[k], cfg))
    for row, S in zip(W_small, sets_small):
        assert np.array_equal(row, _plain_retrain(spec, ds, S, cfg))


def _outlier_problem():
    """A far outlier that no step of the original schedule holds: a retrain
    whose replayed schedule draws it into a resampled slot diverges, and
    the retrains that never draw it do not. Returns the problem, the
    points of the original schedule, and first_draw(S): the first step of
    the retrain without S that holds the outlier, or None."""
    n, cfg = 24, SAMConfig(rho=0.05, eta=0.1, batch_size=4, steps=8, seed=1)
    rng = np.random.default_rng(0)
    base = sample_batches(n, cfg.batch_size, cfg.steps, cfg.seed)
    used = np.unique(np.concatenate(base))
    outlier = int(np.setdiff1d(np.arange(n), used)[-1])
    spec = ModelSpec("logistic", (3, 2))
    X = rng.standard_normal((n, 3))
    w0 = mod.init_params(spec, cfg.seed)
    X[outlier] = 1e9 * (w0[3:6] - w0[0:3])  # far on the class-1 side of the start weights ...
    y = rng.integers(0, 2, n)
    y[outlier] = 0  # ... and labelled 0
    ds = Dataset(X, y)

    def first_draw(S):
        S = np.atleast_1d(S)
        remapped = outlier - int(np.sum(S < outlier))
        hit = [t for t, s in enumerate(loo_schedule(n, S, cfg)) if remapped in s]
        return hit[0] if hit else None

    return spec, ds, cfg, used.tolist(), first_draw


def test_one_diverging_replica_names_its_set():
    spec, ds, cfg, used, first_draw = _outlier_problem()
    bad = [k for k in used if first_draw(k) is not None]
    good = [k for k in used if first_draw(k) is None]
    assert bad and len(good) >= 2
    sets = [good[0], bad[0], good[1]]
    with pytest.raises(DivergenceError, match=rf"points \[{bad[0]}\] diverged at step {first_draw(bad[0])} "):
        loo_retrain_many(spec, ds, sets, cfg)
    W = loo_retrain_many(spec, ds, [good[0], good[1]], cfg)
    assert np.all(np.isfinite(W))


def test_batch_larger_than_train_split_is_a_config_error():
    # The message train_sam gives, so calibrate reads as train does.
    spec, ds = _problem("logistic", seed=4)
    cfg = _cfg("mini", ds.indices("train").size, batch_size=ds.indices("train").size + 1)
    with pytest.raises(ConfigError, match=r"^batch size \d+ exceeds train size \d+$"):
        loo_retrain_many(spec, ds, [[], 3], cfg)


def test_blocks_are_cut_equal(monkeypatch):
    # ceil(R / RETRAIN_BLOCK) blocks per batch-size group, sizes within one.
    spec, ds = _problem("logistic", seed=4, n=48)
    cfg = _cfg("mini", ds.indices("train").size, steps=3)
    sizes = []
    real = oracle.train_sam_many

    def recorded(spec_, X, y, cfg_, batches, *args):
        sizes.append(batches.shape[1])
        return real(spec_, X, y, cfg_, batches, *args)

    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    monkeypatch.setattr(oracle, "train_sam_many", recorded)
    loo_retrain_many(spec, ds, range(40), cfg)
    assert sizes == [20, 20]
    sizes.clear()
    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 4)
    loo_retrain_many(spec, ds, range(10), cfg)
    assert sizes == [4, 3, 3]


def _forks(monkeypatch) -> list:
    """Records the pid of every child os.fork makes from here on."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_blocks_equal_one_process(monkeypatch, cpus):
    # b = n-2: sets of 1 and 2 points share one group, larger sets shrink b.
    spec, ds = _problem("tanh", seed=2)
    n = ds.indices("train").size
    cfg = _cfg("mini", n, batch_size=n - 2)
    sets = [[4, 9, 13], 2, [0, 1, 2, 3, 20], [8, 22], 17, [6, 12, 18], 5, [10, 11], 21]
    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 2)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    W_one = loo_retrain_many(spec, ds, sets, cfg)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
    W = loo_retrain_many(spec, ds, sets, cfg)
    assert len(pids) == cpus - 1
    assert np.array_equal(W, W_one)
    for row, S in zip(W, sets):
        assert np.array_equal(row, _plain_retrain(spec, ds, S, cfg))
    _no_child_left()


def test_divergence_in_a_child_block_raises_the_one_process_error(monkeypatch):
    # One block per set on two processes: the caller trains blocks 0 and 2,
    # the child 1 and 3. Blocks 1 and 2 diverge; block 1's error is raised.
    spec, ds, cfg, used, first_draw = _outlier_problem()
    bad = next(k for k in used if first_draw(k) is not None)
    good = [k for k in used if first_draw(k) is None]
    bad_pair = next(list(S) for S in itertools.combinations(good, 2) if first_draw(list(S)) is not None)
    sets = [good[0], bad, bad_pair, good[1]]
    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 1)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    with pytest.raises(DivergenceError) as one_process:
        loo_retrain_many(spec, ds, sets, cfg)
    assert f"points [{bad}] diverged at step {first_draw(bad)} " in str(one_process.value)
    with pytest.raises(DivergenceError, match="diverged"):
        loo_retrain_many(spec, ds, [bad_pair], cfg)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    with pytest.raises(DivergenceError) as forked:
        loo_retrain_many(spec, ds, sets, cfg)
    assert len(pids) == 1
    assert str(forked.value) == str(one_process.value)
    _no_child_left()


def test_child_that_sends_nothing_is_an_error(monkeypatch):
    spec, ds = _problem("logistic", seed=4)
    cfg = _cfg("mini", ds.indices("train").size, steps=3)
    parent, real = os.getpid(), oracle._train_share

    def dies_in_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 2)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "_train_share", dies_in_child)
    with pytest.raises(ChildProcessError, match=r"ended without sending its rows \(exit code 3\)"):
        loo_retrain_many(spec, ds, range(6), cfg)
    _no_child_left()


def test_one_set_sweep_does_not_fork(monkeypatch):
    spec, ds = _problem("logistic", seed=4)
    cfg = _cfg("mini", ds.indices("train").size, steps=3)

    def no_fork():
        raise AssertionError("a one-set sweep forked")

    monkeypatch.setattr(oracle, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    W = loo_retrain_many(spec, ds, [[5, 9]], cfg)
    assert np.array_equal(W[0], _plain_retrain(spec, ds, [5, 9], cfg))


def _cuts(monkeypatch) -> list:
    """Records the block sizes of every sweep from here on."""
    cuts, real = [], oracle._train_blocks

    def recorded(train, blocks, workers):
        cuts.append([len(block) for block in blocks])
        return real(train, blocks, workers)

    monkeypatch.setattr(oracle, "_train_blocks", recorded)
    return cuts


def test_short_sweep_fills_every_cpu(monkeypatch):
    # 17 sets on 2 CPUs: blocks of at most ceil(17 / 2) = 9, so 9 + 8
    # train in two processes, not 17 in one.
    spec, ds = _problem("logistic", seed=4, n=30)
    cfg = _cfg("mini", ds.indices("train").size, steps=6)
    sets = [[], *range(16)]
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    cuts = _cuts(monkeypatch)
    W_one = loo_retrain_many(spec, ds, sets, cfg)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    W = loo_retrain_many(spec, ds, sets, cfg)
    assert cuts == [[17], [9, 8]] and len(pids) == 1
    assert np.array_equal(W, W_one)
    for k in (1, 9, 16):
        assert np.array_equal(W[k], _plain_retrain(spec, ds, sets[k], cfg))
    _no_child_left()


def test_cut_keeps_small_groups_whole(monkeypatch):
    # Full batch: each set size is its own group. 3 groups of 2 rows on 2
    # CPUs cut blocks of up to 3 rows, so no group splits into one-row blocks.
    spec, ds = _problem("logistic", seed=4)
    cfg = _cfg("full", ds.indices("train").size, steps=3)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    cuts = _cuts(monkeypatch)
    loo_retrain_many(spec, ds, [[], [], [1, 2], [3, 4], [5], [6]], cfg)
    assert cuts == [[2, 2, 2]]


@pytest.mark.parametrize("case", ["empty sweep", "other platform", "other thread"])
def test_sweeps_that_stay_in_one_process(monkeypatch, case):
    spec, ds = _problem("logistic", seed=4)
    cfg = _cfg("mini", ds.indices("train").size, steps=3)
    sets = [] if case == "empty sweep" else range(6)
    monkeypatch.setattr(oracle, "RETRAIN_BLOCK", 2)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    W_one = loo_retrain_many(spec, ds, sets, cfg)

    def no_fork():
        raise AssertionError(f"a sweep forked ({case})")

    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    if case == "other platform":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if case == "other thread":
        other.start()
    try:
        W = loo_retrain_many(spec, ds, sets, cfg)
    finally:
        stop.set()
    assert W.shape == (len(sets), spec.param_count)
    assert np.array_equal(W, W_one)


@pytest.mark.parametrize("kind,schedule", [
    ("logistic", "full"), ("logistic", "mini"), ("logistic", "epoch"),
    ("tanh", "full"), ("tanh", "mini"), ("tanh", "epoch"),
])
def test_empty_set_replays_the_trained_model(kind, schedule):
    # What lets valuate, detect-noise and edit treat "remove nothing" as
    # one more removal set: loss scale 1 and the original schedule.
    spec, ds = _problem(kind, seed=8)
    cfg = _cfg(schedule, ds.indices("train").size)
    W = loo_retrain_many(spec, ds, [[], [3]], cfg)
    assert np.array_equal(W[0], train_sam(spec, ds, cfg)[0])


def test_calibrate_retrains_its_sample_in_one_call(monkeypatch):
    spec, ds = _problem("logistic", seed=5)
    cfg = _cfg("mini", ds.indices("train").size, steps=10)
    calls = []
    real = oracle._retrain_sweep

    def counted(spec_, X, y, base, sets, cfg_, record):
        calls.append([np.atleast_1d(S).size for S in sets])
        return real(spec_, X, y, base, sets, cfg_, record)

    monkeypatch.setattr(oracle, "_retrain_sweep", counted)
    report = oracle.calibrate_estimator(spec, ds, cfg, "if_fast", 9)
    assert calls == [[0] + [1] * 9] and report.n_points == 9


def test_calibrate_trains_no_separate_model(monkeypatch):
    spec, ds = _problem("tanh", seed=5)
    cfg = _cfg("mini", ds.indices("train").size, steps=10)
    expected = oracle.calibrate_estimator(spec, ds, cfg, "gif", 7)

    def no_training(*args, **kwargs):
        raise AssertionError("calibrate called train_sam")

    monkeypatch.setattr(samtrain, "train_sam", no_training)
    monkeypatch.setattr(oracle, "train_sam", no_training)
    assert oracle.calibrate_estimator(spec, ds, cfg, "gif", 7) == expected


@pytest.mark.parametrize("schedule", ["mini", "epoch", "full"])
def test_calibrate_draws_its_schedule_once(monkeypatch, schedule):
    # The sweep and the recorded trajectory share one draw of the schedule.
    spec, ds = _problem("tanh", seed=5)
    n = ds.indices("train").size
    cfg = _cfg(schedule, n, steps=10)
    expected = oracle.calibrate_estimator(spec, ds, cfg, "gif", 7)
    calls = []
    real = samtrain.sample_batches

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(samtrain, "sample_batches", counted)
    assert oracle.calibrate_estimator(spec, ds, cfg, "gif", 7) == expected
    assert calls == [(n, cfg.batch_size, cfg.steps, cfg.seed, cfg.epoch_shuffled)]


@pytest.mark.parametrize("kind,schedule,cpus", [
    ("logistic", "mini", 1), ("logistic", "full", 2), ("tanh", "mini", 2),
    ("tanh", "epoch", 1), ("relu", "epoch", 2), ("relu", "full", 1),
])
def test_calibrate_records_train_sams_trajectory(monkeypatch, kind, schedule, cpus):
    # The empty set's block records in the calling process, forked or not.
    spec, ds = _problem(kind, seed=9)
    n = ds.indices("train").size
    cfg = _cfg(schedule, n, p=3.0 if kind == "tanh" else 2.0)
    w, traj = train_sam(spec, ds, cfg)
    seen = []
    real = oracle.influence_scores

    def captured(*args):
        seen.append((args[3], args[9]))  # params, trajectory
        return real(*args)

    monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(oracle, "influence_scores", captured)
    oracle.calibrate_estimator(spec, ds, cfg, "gif", n // 2)
    (params, recorded), = seen
    assert np.array_equal(params, w)
    for field in ("params", "batches", "etas", "weights"):
        assert np.array_equal(getattr(recorded, field), getattr(traj, field)), field
        assert getattr(recorded, field).dtype == getattr(traj, field).dtype, field
    assert (recorded.n_train, recorded.config_digest, recorded.rho, recorded.p) == (
        traj.n_train, traj.config_digest, traj.rho, traj.p)


def test_calibrate_without_val_rows_fails_before_training(monkeypatch):
    spec, ds = _problem("logistic", seed=5)
    no_val = Dataset(ds.features, ds.labels, np.where(ds.split == "val", "test", ds.split))
    cfg = _cfg("mini", no_val.indices("train").size, steps=10)

    def no_sweep(*args):
        raise AssertionError("calibrate retrained before checking the val split")

    monkeypatch.setattr(oracle, "_retrain_sweep", no_sweep)
    with pytest.raises(InvalidInputError, match="no val split rows"):
        oracle.calibrate_estimator(spec, no_val, cfg, "if_fast", 5)


def test_removal_that_diverges_first_is_named_in_calibrate(monkeypatch):
    # The outlier problem's model never diverges. In one block, the
    # earliest step's first replica that draws the outlier is reported.
    spec, ds, cfg, used, first_draw = _outlier_problem()
    n = ds.n
    with_val = Dataset(np.vstack([ds.features, ds.features[:4]]), np.r_[ds.labels, ds.labels[:4]],
                       ["train"] * n + ["val"] * 4)
    steps = {k: first_draw(k) for k in used if first_draw(k) is not None}
    first = min(steps, key=lambda k: (steps[k], k))
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    expected = rf"^retrain without training points \[{first}\] diverged at step {steps[first]} "
    with pytest.raises(DivergenceError, match=expected):
        oracle.calibrate_estimator(spec, with_val, cfg, "if_fast", n)


def test_removal_fractions_retrain_ranked_and_random_together(monkeypatch):
    spec, ds = _problem("logistic", seed=6)
    cfg = _cfg("mini", ds.indices("train").size, steps=10)
    calls = []
    real = oracle.loo_retrain_many

    def counted(spec_, ds_, sets, cfg_):
        calls.append([len(S) for S in sets])
        return real(spec_, ds_, sets, cfg_)

    monkeypatch.setattr(oracle, "loo_retrain_many", counted)
    ecfg = experiments.ExperimentConfig(removal_fractions=(0.0, 0.25, 0.5), seed=6)
    order = np.arange(ds.indices("train").size)[::-1]
    test = mod._split_rows(spec, ds, "test")
    sizes = experiments._removal_sizes(ecfg.removal_fractions, order.size)
    ranked, rand, _, _ = experiments._removal_accuracies(ecfg, spec, ds, cfg, order, sizes, 0x7A,
                                                         test)
    assert calls == [[0, 0, 6, 6, 12, 12]]
    assert ranked[1] == mod.accuracy(spec, _plain_retrain(spec, ds, order[:6], cfg), ds, "test")


def test_validation_loss_is_the_gradient_paths_loss():
    spec, ds = _problem("tanh", seed=7, n=80)
    w = mod.init_params(spec, 7)
    expected, _ = mod.subset_loss_grad(spec, w, ds, ds.indices("val"), 1.0)
    assert oracle.validation_loss(spec, w, ds) == expected
