"""The SAM step loop runs on arrays made once per train_sam_many call.

The model kernel (_loss_pass, _backprop, _summed_grad) writes into a
model._Workspace when given one and allocates when given None; both are
the same code, so their results must match bit for bit. The trainer must
neither change its inputs nor hand back an array that a later call, or
its own record, shares.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from samattr import model as mod
from samattr import samtrain
from samattr.datasets import make_blobs
from samattr.errors import InvalidInputError
from samattr.model import ModelSpec
from samattr.samtrain import SAMConfig

SRC = Path(__file__).resolve().parents[1] / "src"

SPECS = {
    "logistic": ModelSpec("logistic", (4, 3)),
    "tanh": ModelSpec("mlp", (4, 6, 3), "tanh"),
    "relu": ModelSpec("mlp", (4, 5, 4, 3), "relu"),
    "tanh-10-class": ModelSpec("mlp", (12, 7, 10), "tanh"),
}


def _kernel(spec, W, X, y, ws):
    """Per-example losses, logp, every delta, s and phi1, and the summed gradient."""
    layers = mod._unpack_rows(spec, W)
    acts, logp, label, losses = mod._loss_pass(spec, layers, X, y, ws)
    deltas, s, phi1 = mod._backprop(spec, layers, acts, logp, label, ws)
    grad = mod._summed_grad(spec, zip(deltas, acts[:-1]), ws)
    arrays = [losses, logp, grad, *acts[1:], *deltas, *s[1:]]
    return [a.copy() for a in arrays] + [p.astype(np.float64) for p in phi1[1:]]


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
    spec = SPECS[name]
    ws = mod._Workspace(spec, R, b)
    for seed in (0, 1):  # the second call writes over the first call's arrays
        W, X, y = _data(spec, R, b, seed)
        got, want = _kernel(spec, W, X, y, ws), _kernel(spec, W, X, y, None)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_skipped_loss_leaves_the_gradient_unchanged():
    spec = SPECS["tanh"]
    W, X, y = _data(spec, 3, 4, 2)
    layers = mod._unpack_rows(spec, W)
    acts, logp, label, losses = mod._loss_pass(spec, layers, X, y, loss=False)
    assert losses is None
    grad = mod._summed_grad(spec, zip(mod._backprop(spec, layers, acts, logp, label)[0],
                                      acts[:-1]))
    assert grad.tobytes() == mod.stacked_loss_grad(spec, W, X, y)[1].tobytes()


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
