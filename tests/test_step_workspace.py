"""The SAM step loop runs on arrays made once per train_sam_many call.

The model kernel (model._Kernel) is bound once to a parameter block and an
input stack, and each pass writes over the last call's arrays; a kernel
reused that way, with new inputs written into its bound arrays, and a
second binding at other weights that shares its arrays (at()) must give
what a freshly built kernel gives, bit for bit. The trainer must neither
change its inputs nor hand back an array that a later call, or its own
record, shares.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from samattr import model as mod
from samattr import samtrain
from samattr.datasets import make_blobs
from samattr.errors import DivergenceError, InvalidInputError
from samattr.model import ModelSpec
from samattr.samtrain import SAMConfig

SRC = Path(__file__).resolve().parents[1] / "src"

SPECS = {
    "logistic": ModelSpec("logistic", (4, 3)),
    "tanh": ModelSpec("mlp", (4, 6, 3), "tanh"),
    "relu": ModelSpec("mlp", (4, 5, 4, 3), "relu"),
    "tanh-10-class": ModelSpec("mlp", (12, 7, 10), "tanh"),
}


def _kernel(kernel, y):
    """Per-example losses, logp, every delta, s and phi1, and the summed gradient."""
    losses = kernel.gradient(kernel.labels(y))
    arrays = [losses, kernel.logp, kernel.grad, *kernel.acts[1:], *kernel.deltas, *kernel.s[1:]]
    return [a.copy() for a in arrays] + [p.astype(np.float64) for p in kernel.phi1[1:]]


def _data(spec, R, b, seed):
    rng = np.random.default_rng(seed)
    W = mod.init_params(spec, seed) + 0.3 * rng.standard_normal((R, spec.param_count))
    X = rng.standard_normal((R, b, spec.input_dim))
    y = rng.integers(0, spec.num_classes, (R, b))
    return W, X, y


# (R, b) = (2, 5) keeps NumPy's class-axis reduction; (8, 20) takes the column loop.
@pytest.mark.parametrize("R,b", [(1, 1), (2, 5), (8, 20)])
@pytest.mark.parametrize("name", SPECS)
def test_workspace_results_equal_the_allocating_kernel(name, R, b):
    # A kernel bound once and run twice, on new inputs written into its bound
    # arrays as the trainer writes them, against a kernel built for each call.
    spec = SPECS[name]
    W_at, X_at = np.empty((R, spec.param_count)), np.empty((R, b, spec.input_dim))
    W_other = np.empty_like(W_at)
    reused = mod._Kernel(spec, W_at, X_at)
    other = reused.at(W_other)  # the trainer's second binding, at W + eps
    assert np.shares_memory(other.grad, reused.grad)
    for seed in (0, 1):  # the second call writes over the first call's arrays
        W, X, y = _data(spec, R, b, seed)
        W_at[...], X_at[...], W_other[...] = W, X, W[::-1]
        for kernel, weights in ((reused, W), (other, W[::-1])):
            got, want = _kernel(kernel, y), _kernel(mod._Kernel(spec, weights, X), y)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_skipped_loss_leaves_the_gradient_unchanged():
    spec = SPECS["tanh"]
    W, X, y = _data(spec, 3, 4, 2)
    kernel = mod._Kernel(spec, W, X)
    assert kernel.gradient(kernel.labels(y), loss=False) is None
    assert kernel.grad.tobytes() == mod.stacked_loss_grad(spec, W, X, y)[1].tobytes()


def _problem(R=3):
    ds = make_blobs(40, 4, 3, 2.5, seed=7)
    spec = ModelSpec("mlp", (4, 6, 3), "tanh")
    X, y = mod._split_rows(spec, ds, "train")
    cfg = SAMConfig(rho=0.05, lam=0.01, eta=0.2, batch_size=5, steps=30, seed=3)
    batches = np.stack([SAMConfig(batch_size=5, steps=30, seed=s).schedule(y.size)
                        for s in range(R)], axis=1)
    return spec, X, y, cfg, batches, np.linspace(0.5, 1.0, R)


def test_inputs_are_left_unchanged_and_results_share_nothing():
    spec, X, y, cfg, batches, scales = _problem()
    inputs = [a.copy() for a in (X, y, batches, scales)]
    labels = ["a", "b", "c"]
    record = np.empty((cfg.steps + 1, spec.param_count))
    first = samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels, record)
    for a, before in zip((X, y, batches, scales), inputs):
        assert a.tobytes() == before.tobytes()
    second = samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)
    assert not np.shares_memory(record, first)
    assert np.array_equal(record[-1], first[0])
    # Each record row is the weights of its step, not a view that later updates moved.
    assert len(np.unique(record, axis=0)) == cfg.steps + 1


@pytest.mark.parametrize("position", [40, -41, 10**6])
def test_batch_position_outside_the_train_split_rejected(position):
    # Positions are checked once, since the step loop gathers with wrap-around.
    spec, X, y, cfg, batches, scales = _problem()
    batches = batches.copy()
    batches[7, 1, 2] = position
    with pytest.raises(InvalidInputError, match="batch position is outside the train split"):
        samtrain.train_sam_many(spec, X, y, cfg, batches, scales, ["a", "b", "c"])


def test_negative_positions_count_from_the_end_as_indexing_does():
    spec, X, y, cfg, batches, scales = _problem()
    wrapped = batches - y.size * (batches % 2)  # every odd position as its negative alias
    assert wrapped.min() < 0
    labels = ["a", "b", "c"]
    assert np.array_equal(samtrain.train_sam_many(spec, X, y, cfg, wrapped, scales, labels),
                          samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels))


@pytest.mark.parametrize("chunk", [1, 7, 29])
def test_label_chunks_give_the_same_run(chunk, monkeypatch):
    # The label positions are formed for a chunk of steps at a time: every
    # step its own chunk, 30 steps as 4 chunks of 7 and one of 2, or 29 and 1.
    spec, X, y, cfg, batches, scales = _problem()
    labels = ["a", "b", "c"]
    runs = []
    for size in (samtrain._LABEL_CHUNK, chunk * batches[0].size):
        monkeypatch.setattr(samtrain, "_LABEL_CHUNK", size)
        record = np.empty((cfg.steps + 1, spec.param_count))
        runs.append((samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels, record),
                     record))
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


def _poison(monkeypatch, step, replicas, value):
    """Make train_sam_many's first-pass kernel report, at the given step, a
    per-example loss of value for the first example of each given replica
    and 0.0 for its others; the gradient is left as it is."""

    class Poisoned(mod._Kernel):
        calls = 0

        def gradient(self, label, loss=True):
            losses = super().gradient(label, loss)
            if loss:
                if Poisoned.calls == step:
                    losses[replicas] = 0.0
                    losses[replicas, 0] = value
                Poisoned.calls += 1
            return losses

    monkeypatch.setattr(mod, "_Kernel", Poisoned)


@pytest.mark.parametrize("replicas", [[2], [1, 2], [2, 0, 1]])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e8])
def test_divergence_names_the_lowest_bad_replica_and_the_step(monkeypatch, value, replicas):
    # A batch loss (scale * the per-example losses' sum) that is NaN, +-inf or
    # above 1e6 at step 7 raises there, naming the lowest-index bad replica.
    spec, X, y, cfg, batches, scales = _problem()
    _poison(monkeypatch, 7, replicas, value)
    first = min(replicas)
    b = batches.shape[-1]
    loss = float((scales / b)[first] * np.add.reduce(np.r_[value, np.zeros(b - 1)]))
    assert not -math.inf < loss <= 1e6
    with pytest.raises(DivergenceError, match=rf"^{'abc'[first]} diverged at step 7 "
                                              rf"\(batch loss {re.escape(str(loss))}\)$"):
        samtrain.train_sam_many(spec, X, y, cfg, batches, scales, ["a", "b", "c"])


def test_a_batch_loss_up_to_1e6_trains_on():
    # The check reads only the losses: a poisoned loss within the bound leaves
    # the run bitwise as it was.
    spec, X, y, cfg, batches, scales = _problem()
    labels = ["a", "b", "c"]
    want = samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poison(monkeypatch, 7, [0, 1, 2], 1e6)  # at most 0.2 * 1e6 per batch
        got = samtrain.train_sam_many(spec, X, y, cfg, batches, scales, labels)
    assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are read on Linux")
def test_a_sweep_block_takes_few_page_faults():
    # One 300-step block of 21 replicas at the minibatch-mlp-oracle shape, in
    # a fresh interpreter: allocating every temporary per step made the heap
    # grow and shrink each step, over 50,000 minor faults for the block.
    code = """
import resource
import numpy as np
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.samtrain import SAMConfig, train_sam_many
spec = mod.ModelSpec("mlp", (20, 32, 4), "tanh")
X, y = mod._split_rows(spec, make_blobs(400, 20, 4, 3.0, 5), "train")
cfg = SAMConfig(batch_size=32, steps=300, seed=5)
batches = np.stack([SAMConfig(batch_size=32, steps=300, seed=s).schedule(y.size)
                    for s in range(21)], axis=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_sam_many(spec, X, y, cfg, batches, np.ones(21), ["r"] * 21)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 5000
