"""A split is checked one way and a run's schedule is drawn one way.

Every empty split is model._split_rows' InvalidInputError "dataset has no
<split> split rows", every command checks the splits it reads right after
setup and before it trains, and SAMConfig.schedule is the config's seeded
numcore.sample_batches draw."""

import numpy as np
import pytest

from samattr import cli, experiments, oracle
from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import ConfigError, InvalidInputError
from samattr.experiments import ExperimentConfig, load_config, setup
from samattr.model import Dataset, ModelSpec
from samattr.numcore import sample_batches
from samattr.samtrain import SAMConfig, train_sam

SPEC = ModelSpec(kind="mlp", layer_sizes=(3, 5, 3))
BLOBS = make_blobs(30, 3, 3, 1.0, seed=5)


def _without(ds: Dataset, split: str) -> Dataset:
    """ds with the rows of split moved to another split."""
    other = "test" if split == "val" else "val"
    return Dataset(ds.features, ds.labels, np.where(ds.split == split, other, ds.split))


@pytest.mark.parametrize("n, fields", [
    (50, dict(batch_size=8, steps=40, seed=3)),
    (12, dict(batch_size=12, steps=5, seed=4)),
    (30, dict(batch_size=7, steps=25, seed=5, epoch_shuffled=True)),
], ids=["minibatch", "full-batch", "epoch-shuffled"])
def test_schedule_is_the_seeded_sample_batches_draw(n, fields):
    cfg = SAMConfig(**fields)
    expected = sample_batches(n, cfg.batch_size, cfg.steps, cfg.seed, cfg.epoch_shuffled)
    got = cfg.schedule(n)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


def test_schedule_refuses_a_batch_above_the_train_size():
    with pytest.raises(ConfigError, match="^batch size 11 exceeds train size 10$"):
        SAMConfig(batch_size=11).schedule(10)


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_accuracy_names_an_empty_split(split):
    with pytest.raises(InvalidInputError, match=f"^dataset has no {split} split rows$"):
        mod.accuracy(SPEC, mod.init_params(SPEC, 0), _without(BLOBS, split), split)


def test_training_names_an_empty_train_split():
    # influence_scores, sam_gif and calibrate_estimator: tests/test_sam_point.py.
    ds, sam = _without(BLOBS, "train"), SAMConfig(batch_size=4, steps=3)
    with pytest.raises(InvalidInputError, match="^dataset has no train split rows$"):
        train_sam(SPEC, ds, sam)
    with pytest.raises(InvalidInputError, match="^dataset has no train split rows$"):
        oracle.loo_retrain_many(SPEC, ds, [[], 0], sam)


def test_setup_names_an_empty_train_split(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("a,label\n0.0,0\n1.0,1\n")  # one val row and one test row, none to train
    cfg = ExperimentConfig(dataset=str(path), val_fraction=0.45, test_fraction=0.45)
    with pytest.raises(InvalidInputError, match="^dataset has no train split rows$"):
        setup(cfg)


def _config(tmp_path, extra: str) -> str:
    """A 40-row CSV (all rows train until setup splits it) and a config
    file over it with extra lines appended; returns the config's path."""
    ds = make_blobs(40, 3, 2, 3.0, seed=1)
    data = tmp_path / "d.csv"
    rows = [",".join(map(str, [*x, y])) for x, y in zip(ds.features, ds.labels)]
    data.write_text("a,b,c,label\n" + "\n".join(rows) + "\n")
    conf = tmp_path / "run.conf"
    conf.write_text(f"dataset = {data}\nsteps = 5\nflip_fraction = 0.1\n" + extra)
    return str(conf)


def _no_training(*args):
    raise AssertionError("the command trained before checking its inputs")


@pytest.mark.parametrize("command, split, edit_indices", [
    ("train", "val", ""), ("train", "test", ""),
    ("attribute", "val", ""),
    ("valuate", "val", ""), ("valuate", "test", ""),
    ("detect-noise", "val", ""), ("detect-noise", "test", ""),
    ("edit", "val", ""), ("edit", "test", ""), ("edit", "test", "0,1"),
])
def test_a_command_checks_the_splits_it_reads_before_training(
    tmp_path, monkeypatch, capsys, command, split, edit_indices
):
    monkeypatch.setattr(experiments, "train_sam", _no_training)
    conf = _config(tmp_path, f"{split}_fraction = 0\nedit_indices = {edit_indices}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", conf, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: dataset has no {split} split rows\n"
    assert not out.exists()


def test_edit_with_explicit_indices_reads_no_val_split(tmp_path):
    conf = _config(tmp_path, "val_fraction = 0\nedit_indices = 0,1\n")
    assert cli.main(["edit", "--config", conf, "--out", str(tmp_path / "out")]) == 0


def test_detect_noise_that_flips_no_label_fails_before_training(tmp_path, monkeypatch, capsys):
    # round(0.01 * 28 train points) = 0 flipped labels: no recall to measure.
    monkeypatch.setattr(experiments, "train_sam", _no_training)
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = blobs(40, 4, 2, 3.0, 1)\nsteps = 5\nflip_fraction = 0.01\n")
    out = tmp_path / "out"
    assert cli.main(["detect-noise", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: flip_fraction 0.01 ") and "no label" in err
    assert not out.exists()


def test_train_loss_and_val_query_are_the_subset_gradients(tmp_path):
    # The loss-only pass and the stacked val gradient give subset_loss_grad's bits.
    extra = f"model = mlp\nhidden = 4\nbatch_size = 8\nout = {tmp_path / 'out'}\n"
    cfg = load_config(_config(tmp_path, extra))
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    train = ds.indices("train")
    loss, _ = mod.subset_loss_grad(spec, params, ds, train, 1.0 / train.size)
    report = experiments.cmd_train(cfg)
    assert report.runs[0].metric == "train_loss" and report.runs[0].y == [loss]
    _, gval = mod.subset_loss_grad(spec, params, ds, ds.indices("val"), 1.0)
    expected = experiments._estimate(cfg, spec, ds, sam, params, traj, range(train.size),
                                     gval[None])[:, 0]
    val = mod._split_rows(spec, ds, "val")
    got = experiments._val_scores(cfg, spec, ds, sam, params, traj, val)
    assert got.tobytes() == expected.tobytes()
