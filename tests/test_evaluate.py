"""One evaluation of parameter rows: model._evaluate scores every row a
command reports in one stacked pass, with the bits of the per-row paths it
replaced, and every command reads its val and test rows once."""

import numpy as np
import pytest

from samattr import cli
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.model import ModelSpec

SPECS = [ModelSpec("logistic", (12, 3)), ModelSpec("mlp", (12, 8, 3), "tanh"),
         ModelSpec("mlp", (12, 8, 3), "relu"), ModelSpec("mlp", (12, 8, 10))]
R = 12


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def old_accuracy(spec, params, X, y):
    """model.accuracy before _evaluate: the predict_labels labels."""
    return float(np.mean(mod.predict_labels(spec, params, X) == y))


def old_losses(spec, W, X, y):
    """oracle._validation_losses before _evaluate, with its 2**16-float stacks."""
    size = max(1, 2**16 // (y.size * max(spec.layer_sizes[1:])))
    losses = np.empty(len(W))
    for lo in range(0, len(W), size):
        rows = W[lo : lo + size]
        y_rows = np.broadcast_to(y, (len(rows), y.size))
        losses[lo : lo + size] = mod._loss_pass(
            spec, mod._unpack_rows(spec, rows), X[None], y_rows)[3].sum(axis=-1)
    return losses


@pytest.mark.parametrize("spec", SPECS, ids=["logistic", "tanh", "relu", "10-class"])
@pytest.mark.parametrize("stack", [1, 2, R])
def test_evaluate_is_the_per_row_accuracy_and_the_stacked_losses(spec, stack, monkeypatch):
    """Every row's loss and accuracy, in stacks of 1 row, 2 rows or all
    rows, on each split. Row 0 is all zero, so its logits tie in every
    class. Row 1 adds 1e-300 to class 1's output bias: its logits pick
    class 1, but its log-probabilities tie, so under all-ones labels it is
    right only if its labels come from the logits."""
    ds = make_blobs(150, spec.input_dim, spec.num_classes, 1.0, seed=stack)
    rng = np.random.default_rng(stack)
    scales = np.r_[0.0, 0.0, np.geomspace(0.1, 10.0, R - 2)]
    W = rng.standard_normal((R, spec.param_count)) * scales[:, None]
    W[1, spec.param_count - spec.num_classes + 1] = 1e-300
    for split in ("train", "val", "test"):
        X, y = mod._split_rows(spec, ds, split)
        width = max(spec.layer_sizes[1:])
        monkeypatch.setattr(mod, "_EVAL_STACK_FLOATS", stack * y.size * width)
        for labels in (y, np.ones_like(y)):
            losses, accs = mod._evaluate(spec, W, X, labels)
            np.testing.assert_array_equal(bits(losses), bits(old_losses(spec, W, X, labels)))
            expected = [old_accuracy(spec, w, X, labels) for w in W]
            np.testing.assert_array_equal(bits(accs), bits(expected))
        assert accs[1] == 1.0  # under the all-ones labels
        one_by_one = [mod.accuracy(spec, w, ds, split) for w in W]
        assert one_by_one == [old_accuracy(spec, w, X, y) for w in W]


COMMANDS = ("train", "attribute", "calibrate", "valuate", "edit", "trace", "detect-noise")


def test_every_command_reads_val_and_test_once(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = blobs(60, 6, 3, 3.0, 2)\nmodel = mlp\nhidden = 8\neta = 0.1\n"
                    "batch_size = 12\nsteps = 40\nsample_size = 5\nflip_fraction = 0.1\n")
    reads = {}
    split_rows = mod._split_rows

    def counted(spec, dataset, split):
        reads[command, split] = reads.get((command, split), 0) + 1
        return split_rows(spec, dataset, split)

    monkeypatch.setattr(mod, "_split_rows", counted)
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 0
    capsys.readouterr()
    assert {k: n for k, n in reads.items() if k[1] != "train" and n > 1} == {}
    assert reads["valuate", "test"] == reads["detect-noise", "test"] == reads["edit", "test"] == 1
