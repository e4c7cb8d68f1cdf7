import struct
from dataclasses import replace

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
    recorded_trajectory,
    stationarity_report,
    train_sam,
    worst_perturbation,
    write_trajectory,
)


def _assert_same_run(a, b):
    for name in ("params", "batches", "etas", "weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y), name


def _record(traj, t):
    """Record t of traj as write_trajectory lays it out: step, eta,
    weight, batch, parameters; the final record has an empty batch."""
    if t == traj.total_steps:
        return t, 0.0, 0.0, np.empty(0, np.int64), traj.params[t]
    return t, traj.etas[t], traj.weights[t], traj.batches[t], traj.params[t]


def _file_bytes(tmp_path, traj):
    write_trajectory(traj, tmp_path / "written.samt")
    return (tmp_path / "written.samt").read_bytes()


def _write_records(path, traj, records):
    """A trajectory file with traj's header and the given records, in the
    version 2 layout."""
    with open(path, "wb") as f:
        f.write(b"SAMT" + struct.pack("<HQQQ", 2, traj.param_count, traj.n_train, traj.total_steps))
        f.write(traj.config_digest + struct.pack("<dd", traj.rho, traj.p))
        for step, eta, weight, batch, params in records:
            f.write(struct.pack("<QddI", step, eta, weight, len(batch)))
            f.write(np.asarray(batch, "<u4").tobytes() + np.asarray(params, "<f8").tobytes())


class TestSAMConfig:
    def test_rejects_negative_rho(self):
        with pytest.raises(ConfigError):
            SAMConfig(rho=-0.1)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ConfigError):
            SAMConfig(eta=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SAMConfig(seed=-1)

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
        assert traj.params.shape == (11, spec.param_count) and traj.batches.shape == (10, 30)
        assert (traj.total_steps, traj.param_count) == (10, spec.param_count)
        np.testing.assert_array_equal(traj.params[0], mod.init_params(spec, 5))
        np.testing.assert_array_equal(traj.final_params, w)
        assert not np.shares_memory(w, traj.params)
        # weight = eta / batch size at every update.
        assert traj.weights[0] == pytest.approx(0.1 / 30)
        assert np.array_equal(traj.etas, np.full(10, 0.1))

    def test_batch_size_exceeds_train_split(self):
        ds = make_blobs(10, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        with pytest.raises(ConfigError):
            train_sam(spec, ds, SAMConfig(batch_size=999, steps=1))

    @pytest.mark.parametrize("entry", [-1, 20, 99])
    def test_schedule_entry_outside_train_split(self, entry):
        # A schedule is checked where its Trajectory is built: -1 would
        # silently wrap to the last train row, 20 is one past it.
        cfg = SAMConfig(batch_size=2, steps=3, seed=0)
        schedule = np.array([[0, 1], [2, entry], [4, 5]])
        with pytest.raises(InvalidInputError, match="step 1: batch index out of range"):
            recorded_trajectory(np.zeros((4, 9)), schedule, 20, cfg)

    def test_schedule_repeat_within_a_step(self):
        # A repeated entry would count twice in training and once in gif.
        cfg = SAMConfig(batch_size=2, steps=3, seed=0)
        schedule = np.array([[0, 1], [2, 3], [4, 4]])
        with pytest.raises(InvalidInputError, match="step 2: batch lists a position twice"):
            recorded_trajectory(np.zeros((4, 9)), schedule, 20, cfg)


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
        _assert_same_run(back, traj)
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
        _assert_same_run(back, traj)

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
        traj.batches[3, 1] = 10**6
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        with pytest.raises(FormatError, match="step 3: batch index out of range"):
            read_trajectory(path)

    def test_batch_repeat_rejected(self, tmp_path):
        traj = self._traj()
        traj.batches[4, 2] = traj.batches[4, 0]
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        with pytest.raises(FormatError, match="step 4: batch lists a position twice"):
            read_trajectory(path)

    def test_thinned_file_rejected(self, tmp_path):
        # Every other step's record, as a strided recording would write: the
        # header still counts 7 updates, so the records run out.
        traj = self._traj()
        path = tmp_path / "thinned.samt"
        _write_records(path, traj, [_record(traj, t) for t in (0, 2, 4, 6, 7)])
        with pytest.raises(FormatError):
            read_trajectory(path)
        # Thinned with a matching header: the steps are not 0..T in order.
        steps = [0, 2, 4, 6]
        kept = replace(traj, params=traj.params[steps + [7]], batches=traj.batches[steps],
                       etas=traj.etas[steps], weights=traj.weights[steps])
        _write_records(path, kept, [_record(traj, t) for t in steps + [7]])
        with pytest.raises(FormatError, match="steps 0..4 of one batch size"):
            read_trajectory(path)

    def test_record_helper_writes_the_writers_bytes(self, tmp_path):
        traj = self._traj()
        _write_records(tmp_path / "run.samt", traj, [_record(traj, t) for t in range(8)])
        assert (tmp_path / "run.samt").read_bytes() == _file_bytes(tmp_path, traj)

    def test_mixed_batch_counts_rejected(self, tmp_path):
        # Step 1 uses 4 points and step 2 uses 6, so the file keeps the
        # length of one with 5 everywhere.
        traj = self._traj()
        records = [_record(traj, t) for t in range(8)]
        t, eta, weight, batch, params = records[1]
        records[1] = (t, eta, weight, batch[:4], params)
        t, eta, weight, batch, params = records[2]
        extra = next(k for k in range(traj.n_train) if k not in batch)
        records[2] = (t, eta, weight, np.append(batch, extra), params)
        path = tmp_path / "mixed.samt"
        _write_records(path, traj, records)
        assert path.stat().st_size == len(_file_bytes(tmp_path, traj))
        with pytest.raises(FormatError):
            read_trajectory(path)

    @pytest.mark.parametrize("change", ["missing update", "missing final", "extra record"])
    def test_record_count_must_match_header(self, tmp_path, change):
        traj = self._traj()
        records = [_record(traj, t) for t in range(8)]
        if change == "missing update":
            del records[3]
        elif change == "missing final":
            del records[-1]
        else:
            records.append(records[-1])
        path = tmp_path / "run.samt"
        _write_records(path, traj, records)
        with pytest.raises(FormatError):
            read_trajectory(path)

    @pytest.mark.parametrize("field,shape", [
        ("params", (7, 9)), ("params", (9,)), ("batches", (6, 5)), ("batches", (7,)),
        ("etas", (6,)), ("weights", (7, 1)),
    ])
    def test_shape_mismatch_rejected(self, field, shape):
        traj = self._traj()
        with pytest.raises(InvalidInputError, match=r"\(T\+1, P\) params"):
            replace(traj, **{field: np.zeros(shape, getattr(traj, field).dtype)})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.samt"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_trajectory(path)
