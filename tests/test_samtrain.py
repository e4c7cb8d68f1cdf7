import struct

import numpy as np
import pytest

from samattr import model as mod
from samattr.datasets import make_blobs
from samattr.errors import ConfigError, FormatError, InvalidInputError
from samattr.model import ModelSpec
from samattr.numcore import p_norm, sample_batches
from samattr.samtrain import (
    SAMConfig,
    read_trajectory,
    stationarity_report,
    train_sam,
    worst_perturbation,
    write_trajectory,
)


class TestSAMConfig:
    def test_rejects_negative_rho(self):
        with pytest.raises(ConfigError):
            SAMConfig(rho=-0.1)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ConfigError):
            SAMConfig(eta=0.0)

    def test_step_decay_lookup(self):
        cfg = SAMConfig(eta=((0, 0.5), (100, 0.05), (200, 0.005)))
        assert cfg.eta_at(0) == 0.5
        assert cfg.eta_at(99) == 0.5
        assert cfg.eta_at(100) == 0.05
        assert cfg.eta_at(5000) == 0.005

    def test_step_decay_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            SAMConfig(eta=((10, 0.5),))

    def test_digest_sensitive_to_fields(self):
        a = SAMConfig(rho=0.05).digest()
        b = SAMConfig(rho=0.06).digest()
        assert len(a) == 32 and a != b
        assert a == SAMConfig(rho=0.05).digest()


class TestWorstPerturbation:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_on_rho_boundary(self, p):
        g = np.random.default_rng(0).standard_normal(40)
        eps = worst_perturbation(g, 0.3, p)
        assert p_norm(eps, p) == pytest.approx(0.3, abs=1e-12)

    def test_p2_is_normalized_gradient(self):
        g = np.array([3.0, 4.0])
        eps = worst_perturbation(g, 1.0, 2.0)
        np.testing.assert_allclose(eps, [0.6, 0.8], rtol=1e-15)

    def test_scale_invariant_in_gradient(self):
        g = np.random.default_rng(1).standard_normal(20)
        for p in (1.5, 2.0, 4.0):
            a = worst_perturbation(g, 0.1, p)
            b = worst_perturbation(1e6 * g, 0.1, p)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_zero_cases(self):
        g = np.random.default_rng(2).standard_normal(5)
        assert np.all(worst_perturbation(g, 0.0, 2.0) == 0.0)
        assert np.all(worst_perturbation(np.zeros(5), 0.5, 2.0) == 0.0)

    def test_maximizes_linear_ascent(self):
        # Among random directions on the rho-ball, the closed form attains
        # the largest inner product with the gradient.
        rng = np.random.default_rng(3)
        g = rng.standard_normal(15)
        for p in (1.5, 2.0, 4.0):
            eps = worst_perturbation(g, 0.2, p)
            best = float(g @ eps)
            for _ in range(200):
                z = rng.standard_normal(15)
                z = 0.2 * z / p_norm(z, p)
                assert float(g @ z) <= best + 1e-12


class TestTrainSAM:
    def test_rho_zero_equals_sgd(self):
        """With rho = 0 the trainer is plain minibatch SGD, bit for bit."""
        ds = make_blobs(60, 5, 3, 2.0, seed=0)
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
        assert np.array_equal(w_sam, w)

    def test_deterministic(self):
        ds = make_blobs(40, 4, 2, 2.0, seed=1)
        spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
        cfg = SAMConfig(rho=0.05, eta=0.2, batch_size=8, steps=50, seed=2)
        w1, _ = train_sam(spec, ds, cfg)
        w2, _ = train_sam(spec, ds, cfg)
        assert np.array_equal(w1, w2)

    def test_reaches_stationarity_full_batch(self):
        ds = make_blobs(50, 4, 2, 1.0, seed=3)  # overlapping classes: no separation
        spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
        cfg = SAMConfig(rho=0.0, lam=0.01, eta=0.5, batch_size=50, steps=2000, seed=0)
        w, _ = train_sam(spec, ds, cfg)
        report = stationarity_report(spec, ds, w, cfg)
        assert report["grad_plus_l2_norm"] < 1e-3

    def test_perturbed_gradient_floor_with_rho(self):
        # With rho > 0 the update field at the fixed point keeps a residual
        # of order rho * ||H||; it should be small but need not vanish.
        ds = make_blobs(50, 4, 2, 1.0, seed=3)
        spec = ModelSpec(kind="logistic", layer_sizes=(4, 2))
        cfg = SAMConfig(rho=0.05, lam=0.01, eta=0.5, batch_size=50, steps=2000, seed=0)
        w, _ = train_sam(spec, ds, cfg)
        report = stationarity_report(spec, ds, w, cfg)
        assert report["grad_plus_l2_norm"] < 2.0 * cfg.rho

    def test_checkpoints_record_pre_update_params(self):
        ds = make_blobs(30, 3, 2, 2.0, seed=4)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, eta=0.1, batch_size=30, steps=10, seed=5)
        w, traj = train_sam(spec, ds, cfg)
        assert [ck.step for ck in traj.checkpoints] == list(range(11))
        np.testing.assert_array_equal(traj.checkpoints[0].params, mod.init_params(spec, 5))
        np.testing.assert_array_equal(traj.final_params, w)
        # weight = eta / batch size for real steps, 0 for the terminal state.
        assert traj.checkpoints[0].weight == pytest.approx(0.1 / 30)
        assert traj.checkpoints[-1].weight == 0.0
        assert traj.checkpoints[-1].batch.size == 0

    def test_batch_size_exceeds_train_split(self):
        ds = make_blobs(10, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        with pytest.raises(ConfigError):
            train_sam(spec, ds, SAMConfig(batch_size=999, steps=1))

    @pytest.mark.parametrize("entry", [-1, 20, 99])
    def test_schedule_entry_outside_train_split(self, entry):
        # -1 would silently wrap to the last train row, 20 is one past it.
        ds = make_blobs(20, 3, 2, 2.0, seed=5)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(batch_size=2, steps=3, seed=0)
        assert ds.indices("train").size == 20
        schedule = np.array([[0, 1], [2, entry], [4, 5]])
        with pytest.raises(InvalidInputError, match="out of range 0..19"):
            train_sam(spec, ds, cfg, schedule=schedule)

    @pytest.mark.parametrize("schedule", [
        np.array([0, 1, 2]), np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.zeros((3, 2, 1), int),
    ])
    def test_schedule_must_be_2d_integer(self, schedule):
        ds = make_blobs(20, 3, 2, 2.0, seed=5)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        with pytest.raises(InvalidInputError, match="2-D integer array"):
            train_sam(spec, ds, SAMConfig(batch_size=2, steps=3), schedule=schedule)


class TestTrajectoryIO:
    def _traj(self):
        ds = make_blobs(20, 3, 2, 2.0, seed=6)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, eta=0.1, batch_size=5, steps=7, seed=7)
        _, traj = train_sam(spec, ds, cfg)
        return traj

    def test_round_trip(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert back.param_count == traj.param_count
        assert back.n_train == traj.n_train
        assert back.total_steps == traj.total_steps
        assert back.config_digest == traj.config_digest
        assert len(back.checkpoints) == len(traj.checkpoints)
        for a, b in zip(traj.checkpoints, back.checkpoints):
            assert a.step == b.step
            assert a.eta == b.eta and a.weight == b.weight
            np.testing.assert_array_equal(a.params, b.params)
            np.testing.assert_array_equal(a.batch, b.batch)
        # Version 2 stores the SAM settings the trajectory estimator needs.
        assert (back.rho, back.p) == (traj.rho, traj.p) == (0.05, 2.0)

    def test_unset_settings_round_trip(self, tmp_path):
        traj = self._traj()
        traj.rho = traj.p = None
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert back.rho is None and back.p is None

    def test_version_1_file_loads(self, tmp_path):
        # A version 1 file is a version 2 file without the 16 bytes of rho
        # and p after the config digest.
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        data = path.read_bytes()
        head = 4 + 2 + 24 + 32
        path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:head] + data[head + 16 :])
        back = read_trajectory(path)
        assert back.rho is None and back.p is None
        assert back.config_digest == traj.config_digest
        assert len(back.checkpoints) == len(traj.checkpoints)
        for a, b in zip(traj.checkpoints, back.checkpoints):
            assert (a.step, a.eta, a.weight) == (b.step, b.eta, b.weight)
            np.testing.assert_array_equal(a.params, b.params)
            np.testing.assert_array_equal(a.batch, b.batch)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.samt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_trajectory(path)

    def test_truncated_file(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(FormatError, match="truncated"):
            read_trajectory(path)

    def test_unsupported_version(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            read_trajectory(path)

    def test_batch_index_out_of_range(self, tmp_path):
        traj = self._traj()
        traj.checkpoints[0].batch = np.array([10**6], dtype=np.int64)
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        with pytest.raises(FormatError, match="out of range"):
            read_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.samt"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_trajectory(path)
