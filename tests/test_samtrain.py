import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from samattr import model as mod
from samattr import samtrain
from samattr.datasets import make_blobs
from samattr.errors import ConfigError, DivergenceError, FormatError, InvalidInputError
from samattr.model import ModelSpec
from samattr.numcore import p_norm, sample_batches
from samattr.samtrain import (
    SAMConfig,
    Trajectory,
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


def _write_v4(path, traj, arrays=None, version=4):
    """A version 4 file: traj's header, then arrays (etas, batches, params;
    traj's own by default). Version 3 has the same layout, with params[t]
    the weights before update t, not the perturbed point."""
    with open(path, "wb") as f:
        f.write(b"SAMT" + struct.pack("<H2xQQQQ", version, traj.param_count, traj.n_train,
                                      *traj.batches.shape))
        f.write(traj.config_digest + struct.pack("<dd", traj.rho, traj.p))
        for array, dtype in zip(arrays or (traj.etas, traj.batches, traj.params),
                                ("<f8", "<i8", "<f8")):
            f.write(np.asarray(array, dtype).tobytes())


def _write_old(traj, path, version):
    """traj in a per-step record layout that version 3 replaced: version 2,
    or version 1, which lacks rho and p."""
    T, b = traj.batches.shape
    with open(path, "wb") as f:
        f.write(b"SAMT" + struct.pack("<HQQQ", version, traj.param_count, traj.n_train, T))
        f.write(traj.config_digest + (struct.pack("<dd", traj.rho, traj.p) if version == 2 else b""))
        for t in range(T + 1):
            batch = traj.batches[t] if t < T else np.empty(0, "<u4")
            eta, weight = (traj.etas[t], traj.weights[t]) if t < T else (0.0, 0.0)
            f.write(struct.pack("<QddI", t, eta, weight, len(batch)))
            f.write(np.asarray(batch, "<u4").tobytes() + traj.params[t].astype("<f8").tobytes())


class TestSAMConfig:
    def test_rejects_negative_rho(self):
        with pytest.raises(ConfigError):
            SAMConfig(rho=-0.1)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ConfigError):
            SAMConfig(eta=0.0)

    @pytest.mark.parametrize("field,value", [
        ("rho", math.nan), ("rho", math.inf), ("lam", math.nan), ("lam", math.inf),
        ("eta", math.nan), ("eta", math.inf), ("eta", ((0, math.nan),)),
        ("eta", ((0, 0.5), (10, math.inf))),
    ], ids=["rho-nan", "rho-inf", "lam-nan", "lam-inf", "eta-nan", "eta-inf",
            "schedule-nan", "schedule-inf"])
    def test_rejects_non_finite_settings(self, field, value):
        # NaN passes a sign check and inf overflows: each would otherwise
        # train to a non-finite loss and read as divergence.
        with pytest.raises(ConfigError):
            SAMConfig(**{field: value})

    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_nan_p_rejected_whatever_rho(self, rho):
        # A NaN p would make the run's trajectory one that Trajectory refuses.
        with pytest.raises(ConfigError, match="p must not be NaN"):
            SAMConfig(rho=rho, p=math.nan)
        # At rho = 0 the perturbation is zero, so any other p is accepted.
        assert SAMConfig(rho=0.0, p=0.5).p == 0.5

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SAMConfig(seed=-1)

    def test_step_decay_lookup(self):
        cfg = SAMConfig(eta=((0, 0.5), (100, 0.05), (200, 0.005)))
        assert cfg.eta_at(0) == 0.5
        assert cfg.eta_at(99) == 0.5
        assert cfg.eta_at(100) == 0.05
        assert cfg.eta_at(5000) == 0.005

    @pytest.mark.parametrize("eta", [0.3, 2, ((0, 0.5), (100, 0.05), (200, 0.005)),
                                     ((0, 0.1), (1, 0.2))], ids=["float", "int", "decay", "step-1"])
    def test_etas_is_eta_at_of_every_step(self, eta):
        cfg = SAMConfig(eta=eta, steps=250)
        etas = cfg.etas()
        assert etas.dtype == np.float64 and etas.shape == (250,)
        assert etas.tolist() == [cfg.eta_at(t) for t in range(250)]

    def test_step_decay_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            SAMConfig(eta=((10, 0.5),))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(steps=0), "batch_size, steps must be >= 1"),
        (dict(eta=((0, 0.5), (10, 0.1), (10, 0.05))), "step-decay schedule steps must increase"),
        (dict(eta=((0, 0.5), (20, 0.1), (10, 0.05))), "step-decay schedule steps must increase"),
    ], ids=["no-steps", "repeated-step", "decreasing-steps"])
    def test_rejects_bad_steps_and_schedules(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SAMConfig(**kwargs)

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

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_p2_tiny_and_huge_rows_stay_on_the_ball(self, scale):
        # The squared norm of 1e-170 * [3, 4] underflows to 0 and that of
        # 1e160 * [3, 4] overflows; each row is rescaled by its largest entry.
        g = scale * np.array([3.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = worst_perturbation(g, 0.5, 2.0)
            stacked = worst_perturbation(np.stack([g, [3.0, 4.0], [0.0, -0.0]]), 0.5, 2.0)
        assert abs(p_norm(eps, 2.0) / 0.5 - 1.0) <= 1e-15
        np.testing.assert_allclose(eps, [0.3, 0.4], rtol=1e-15)
        # A row in range keeps its bits beside a rescaled one, and a zero row
        # its zeros, -0.0 included.
        assert stacked[0].tobytes() == eps.tobytes()
        assert stacked[1].tobytes() == worst_perturbation(np.array([3.0, 4.0]), 0.5, 2.0).tobytes()
        assert stacked[2].tobytes() == np.array([0.0, -0.0]).tobytes()

    @pytest.mark.parametrize("g,rho,direction", [
        ([1e308, 1e308], 2.0, [1.0, 1.0]), ([1e-310, 3e-310], 0.05, [1.0, 3.0]),
    ])
    def test_p2_rows_at_the_float_limits_stay_on_the_ball(self, g, rho, direction):
        # rho * g overflows for the first row, and the second is subnormal;
        # each is divided by its largest entry before rho multiplies it.
        direction = np.array(direction) / np.hypot(*direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = worst_perturbation(np.array(g), rho, 2.0)
            stacked = worst_perturbation(np.array([g, [3.0, 4.0]]), rho, 2.0)
        assert np.all(np.isfinite(eps))
        assert abs(p_norm(eps, 2.0) / rho - 1.0) <= 1e-15
        np.testing.assert_allclose(eps, rho * direction, rtol=1e-13)
        assert stacked[0].tobytes() == eps.tobytes()
        assert stacked[1].tobytes() == worst_perturbation(np.array([3.0, 4.0]), rho, 2.0).tobytes()

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_is_refused(self, p, rho, bad):
        G = np.array([[3.0, 4.0], [1.0, bad], [1e-170, 0.0]])
        with pytest.raises(InvalidInputError, match="gradient has non-finite entries"):
            worst_perturbation(G, rho, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_all_zero_stack_gives_zeros(self, p):
        # The one formula divides by 1 wherever a zero row would divide by 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = worst_perturbation(np.zeros((3, 7)), 0.4, p)
        assert eps.shape == (3, 7) and np.all(eps == 0.0)

    def test_all_zero_stack_checks_p(self):
        # p = 1 has no dual exponent, whatever the gradient; rho = 0 reads no p.
        with pytest.raises(InvalidInputError, match="dual_exponent"):
            worst_perturbation(np.zeros((3, 7)), 0.4, 1.0)
        assert np.all(worst_perturbation(np.zeros((3, 7)), 0.0, 1.0) == 0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("rho", [0.0, 0.07])
    def test_out_takes_the_same_bits(self, p, rho):
        # Written over a NaN-filled buffer, which it returns; rho = 0 writes +0.0.
        G = np.random.default_rng(4).standard_normal((3, 9))
        G[1] = 0.0
        out = np.full_like(G, np.nan)
        assert worst_perturbation(G, rho, p, out=out) is out
        assert out.tobytes() == worst_perturbation(G, rho, p).tobytes()
        assert not np.signbit(out[1]).any()

    @pytest.mark.parametrize("out", [np.empty((9, 3)).T, np.empty((3, 9), np.float32),
                                     np.empty(27)])
    def test_out_of_another_layout_is_refused(self, out):
        with pytest.raises(InvalidInputError, match="out must be"):
            worst_perturbation(np.ones((3, 9)), 0.1, 2.0, out=out)

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

    def test_checkpoints_record_perturbed_points(self):
        ds = make_blobs(30, 3, 2, 2.0, seed=4)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        cfg = SAMConfig(rho=0.05, eta=0.1, batch_size=30, steps=10, seed=5)
        w, traj = train_sam(spec, ds, cfg)
        assert traj.params.shape == (11, spec.param_count) and traj.batches.shape == (10, 30)
        assert (len(traj.batches), traj.param_count) == (10, spec.param_count)
        # Row 0 is init + eps_0, eps_0 from the first batch's mean gradient at init.
        init = mod.init_params(spec, 5)
        X, y = mod._split_rows(spec, ds, "train")
        batch = traj.batches[0]
        _, G = mod.stacked_loss_grad(spec, init[None], X[batch][None], y[batch][None])
        eps0 = worst_perturbation((1.0 / 30) * G[0], 0.05, 2.0)
        np.testing.assert_array_equal(traj.params[0], init + eps0)
        assert p_norm(traj.params[0] - init, 2.0) == pytest.approx(0.05, rel=1e-12)
        np.testing.assert_array_equal(traj.params[-1], w)
        assert not np.shares_memory(w, traj.params)
        # weight = eta / batch size at every update.
        assert traj.weights[0] == pytest.approx(0.1 / 30)
        assert np.array_equal(traj.etas, np.full(10, 0.1))

    def test_non_finite_final_weights_name_their_replica(self):
        # The batch loss stays below the divergence bound, but the last
        # update overflows replica 1's weights; replica 0 (loss scale 0)
        # never moves.
        ds = make_blobs(10, 3, 2, 2.0, seed=0)
        spec = ModelSpec(kind="logistic", layer_sizes=(3, 2))
        X, y = mod._split_rows(spec, ds, "train")
        cfg = SAMConfig(rho=0.05, eta=1e308, batch_size=5, steps=1)
        batches = cfg.schedule(y.size)[:, None].repeat(2, axis=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError, match=r"^blows up diverged at step 1 \(non-finite weights\)$"):
            samtrain.train_sam_many(spec, X, y, cfg, batches, np.array([0.0, 1e3]),
                                    ["stays", "blows up"])

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

    @pytest.mark.parametrize("field,value,message", [
        ("rho", None, "rho must be finite and >= 0, got None"),
        ("rho", math.nan, "rho must be finite and >= 0, got nan"),
        ("rho", math.inf, "rho must be finite and >= 0, got inf"),
        ("rho", -0.1, "rho must be finite and >= 0, got -0.1"),
        ("p", None, "p must not be NaN or None, got None"),
        ("p", math.nan, "p must not be NaN or None, got nan"),
    ], ids=["rho-none", "rho-nan", "rho-inf", "rho-negative", "p-none", "p-nan"])
    def test_trajectory_needs_its_sam_settings(self, field, value, message):
        # gif recomputes every step's perturbation from rho and p, so a
        # trajectory without usable ones is refused when it is built.
        _, traj = train_sam(ModelSpec(kind="logistic", layer_sizes=(3, 2)),
                            make_blobs(10, 3, 2, 2.0, seed=0), SAMConfig(batch_size=5, steps=3))
        with pytest.raises(InvalidInputError, match=f"^trajectory {re.escape(message)}$"):
            replace(traj, **{field: value})

    @pytest.mark.parametrize("digest", [b"short", b"\x00" * 33, "0" * 32],
                             ids=["short", "long", "text"])
    def test_config_digest_must_be_32_bytes(self, digest):
        # The file stores exactly 32 digest bytes, so any other digest
        # would be written into a file that cannot be read back.
        _, traj = train_sam(ModelSpec(kind="logistic", layer_sizes=(3, 2)),
                            make_blobs(10, 3, 2, 2.0, seed=0), SAMConfig(batch_size=5, steps=3))
        with pytest.raises(InvalidInputError,
                           match=f"^trajectory config digest must be 32 bytes, got "
                                 f"{re.escape(repr(digest))}$"):
            replace(traj, config_digest=digest)


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
        assert len(back.batches) == len(traj.batches)
        assert back.config_digest == traj.config_digest
        _assert_same_run(back, traj)
        # The file stores the SAM settings the trajectory estimator needs.
        assert (back.rho, back.p) == (traj.rho, traj.p) == (0.05, 2.0)
        # The loaded arrays are writable, aligned views of the file's one buffer.
        assert all(a.flags.writeable and a.flags.aligned
                   for a in (back.params, back.batches, back.etas))

    @pytest.mark.parametrize("kind", ["relu-p3", "p-inf"])
    def test_round_trip_is_bitwise_in_every_field(self, tmp_path, kind):
        # relu-p3 has p = 3, a step-decay eta and epoch-shuffled batches;
        # p = inf (the L-inf ball) puts a non-finite float in the header.
        if kind == "relu-p3":
            spec = ModelSpec(kind="mlp", layer_sizes=(4, 6, 3), activation="relu")
            cfg = SAMConfig(p=3.0, eta=((0, 0.1), (5, 0.05)), batch_size=6, steps=12, seed=2,
                            epoch_shuffled=True)
            _, traj = train_sam(spec, make_blobs(30, 4, 3, 2.0, seed=1), cfg)
        else:
            traj = replace(self._traj(), p=math.inf)
        write_trajectory(traj, tmp_path / "run.samt")
        back = read_trajectory(tmp_path / "run.samt")
        for name in ("n_train", "rho", "p", "config_digest"):
            x, y = getattr(back, name), getattr(traj, name)
            assert type(x) is type(y) and x == y, name
        _assert_same_run(back, traj)

    def test_file_is_one_header_and_three_arrays(self, tmp_path):
        traj = self._traj()
        write_trajectory(traj, tmp_path / "run.samt")
        _write_v4(tmp_path / "want.samt", traj)
        data = (tmp_path / "run.samt").read_bytes()
        assert data == (tmp_path / "want.samt").read_bytes()
        T, b, P = 7, 5, traj.param_count
        assert len(data) == 88 + 8 * (T + T * b + (T + 1) * P)

    def test_weights_are_derived_not_given(self):
        traj = self._traj()
        # Bit for bit what recorded_trajectory stored as a field before.
        assert np.array_equal(traj.weights, traj.etas * (1.0 / 5))
        with pytest.raises(AttributeError):
            traj.weights = traj.etas
        with pytest.raises(TypeError, match="weights"):
            samtrain.Trajectory(params=traj.params, batches=traj.batches, etas=traj.etas,
                                weights=traj.weights, n_train=20, rho=0.05, p=2.0)

    @pytest.mark.parametrize("rho,p", [(math.nan, 2.0), (0.05, math.nan), (math.nan, math.nan),
                                       (math.inf, 2.0), (-0.1, 2.0)],
                             ids=["rho-nan", "p-nan", "both-nan", "rho-inf", "rho-negative"])
    def test_bad_settings_rejected(self, tmp_path, rho, p):
        # A file whose rho or p Trajectory refuses.
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        data = bytearray(path.read_bytes())
        head = 4 + 2 + 2 + 32 + 32
        data[head : head + 16] = struct.pack("<dd", rho, p)
        path.write_bytes(bytes(data))
        what = "rho must be finite and >= 0" if not 0.0 <= rho < math.inf else "p must not be NaN"
        with pytest.raises(FormatError, match=f"^trajectory {what}"):
            read_trajectory(path)

    def test_version_1_file_rejected(self, tmp_path):
        # Version 1 lacks rho and p, which gif needs.
        path = tmp_path / "run.samt"
        _write_old(self._traj(), path, 1)
        with pytest.raises(FormatError, match="^unsupported trajectory version 1$"):
            read_trajectory(path)

    def test_version_3_file_rejected(self, tmp_path):
        # Version 3 has version 4's header and arrays, but its params rows
        # are the weights before each update: read as version 4, gif would
        # differentiate at the wrong points.
        path = tmp_path / "run.samt"
        _write_v4(path, self._traj(), version=3)
        with pytest.raises(FormatError, match="^unsupported trajectory version 3$"):
            read_trajectory(path)

    def test_version_2_file_rejected(self, tmp_path):
        # Version 2 stores per-step records, with each step's number, batch
        # count and weight.
        path = tmp_path / "run.samt"
        _write_old(self._traj(), path, 2)
        with pytest.raises(FormatError, match="^unsupported trajectory version 2$"):
            read_trajectory(path)

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
        path.write_bytes(data[:50])  # inside the header
        with pytest.raises(FormatError, match="^trajectory file truncated: 50 bytes, the header "
                                              "needs 88$"):
            read_trajectory(path)

    @pytest.mark.parametrize("data", [b"SAMT", b"SAMT\x04"])
    def test_cut_before_the_version_is_truncated(self, tmp_path, data):
        # The version is read from a whole header, not from what is left of it.
        path = tmp_path / "run.samt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^trajectory file truncated: {len(data)} bytes, "
                                              "the header needs 88$"):
            read_trajectory(path)

    @pytest.mark.parametrize("change", ["trailing byte", "missing byte"])
    def test_one_byte_off_rejected(self, tmp_path, change):
        traj = self._traj()
        path = tmp_path / "run.samt"
        write_trajectory(traj, path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" if change == "trailing byte" else data[:-1])
        size = len(data)
        got, what = (size + 1, "too long") if change == "trailing byte" else (size - 1, "truncated")
        with pytest.raises(FormatError, match=f"^trajectory file {what}: {got} bytes, a header of "
                                              f"T = 7, b = 5, P = 8 needs {size}$"):
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

    def test_empty_batches_rejected(self, tmp_path):
        # b = 0 in the header: (7, 0) batches, whose weights eta / b do not exist.
        traj = self._traj()
        path = tmp_path / "run.samt"
        with open(path, "wb") as f:
            f.write(b"SAMT" + struct.pack("<H2xQQQQ", 4, 8, 20, 7, 0) + traj.config_digest
                    + struct.pack("<dd", 0.05, 2.0) + traj.etas.tobytes() + traj.params.tobytes())
        with pytest.raises(FormatError, match=r"^trajectory needs .* batches with b >= 1"):
            read_trajectory(path)

    def test_thinned_file_rejected(self, tmp_path):
        # Every other step, as a strided recording would keep: the header
        # still counts 7 updates, so the file is too short for them.
        traj = self._traj()
        steps = [0, 2, 4, 6]
        path = tmp_path / "thinned.samt"
        _write_v4(path, traj, arrays=(traj.etas[steps], traj.batches[steps],
                                      traj.params[steps + [7]]))
        with pytest.raises(FormatError, match="^trajectory file truncated: "):
            read_trajectory(path)
        # Thinned parameters only, with every step's eta and batch.
        _write_v4(path, traj, arrays=(traj.etas, traj.batches, traj.params[steps + [7]]))
        with pytest.raises(FormatError, match="^trajectory file truncated: "):
            read_trajectory(path)

    @pytest.mark.parametrize("change", ["missing update", "missing final", "extra record"])
    def test_record_count_must_match_header(self, tmp_path, change):
        traj = self._traj()
        etas, batches, params = traj.etas, traj.batches, traj.params
        if change == "missing update":
            keep = [0, 1, 2, 4, 5, 6]
            etas, batches, params = etas[keep], batches[keep], params[keep + [7]]
        elif change == "missing final":
            params = params[:-1]
        else:
            etas, batches = np.append(etas, etas[-1]), np.vstack([batches, batches[-1]])
            params = np.vstack([params, params[-1]])
        path = tmp_path / "run.samt"
        _write_v4(path, traj, arrays=(etas, batches, params))
        with pytest.raises(FormatError, match="^trajectory file (truncated|too long): "):
            read_trajectory(path)

    @pytest.mark.parametrize("field,shape", [
        ("params", (7, 9)), ("params", (9,)), ("batches", (6, 5)), ("batches", (7,)),
        ("etas", (6,)), ("batches", (7, 0)),
    ])
    def test_shape_mismatch_rejected(self, field, shape):
        traj = self._traj()
        with pytest.raises(InvalidInputError, match=r"\(T\+1, P\) params"):
            replace(traj, **{field: np.zeros(shape, getattr(traj, field).dtype)})

    @pytest.mark.parametrize("field,dtype", [
        ("batches", np.float64), ("batches", np.bool_), ("params", np.float32),
        ("etas", np.float32), ("etas", np.int64),
    ])
    def test_dtype_rejected(self, field, dtype):
        # write_trajectory casts to <i8 and <f8, so any other dtype would be
        # written as another run.
        traj = self._traj()
        with pytest.raises(InvalidInputError, match="needs integer batches and float64 params"):
            replace(traj, **{field: getattr(traj, field).astype(dtype)})

    def test_float_batches_rejected(self):
        # Once written as [[0, 1], [2, 3]] and read back as that run.
        with pytest.raises(InvalidInputError, match=r"got float64, float64, float64$"):
            Trajectory(params=np.zeros((3, 2)), batches=np.array([[0.0, 1.0], [2.0, 3.7]]),
                       etas=np.full(2, 0.1), n_train=4, rho=0.05, p=2.0)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16])
    def test_any_integer_batches_accepted(self, dtype, tmp_path):
        traj = self._traj()
        narrow = replace(traj, batches=traj.batches.astype(dtype))
        write_trajectory(narrow, tmp_path / "run.samt")
        _assert_same_run(read_trajectory(tmp_path / "run.samt"), traj)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.samt"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_trajectory(path)

    def test_memory_is_the_file_and_no_more(self, tmp_path):
        # Writing copies nothing; reading holds one buffer of the file's size.
        rng = np.random.default_rng(0)
        T, b, P = 300, 32, 804
        traj = samtrain.Trajectory(
            params=rng.standard_normal((T + 1, P)),
            batches=np.stack([rng.permutation(400)[:b] for _ in range(T)]),
            etas=np.full(T, 0.1), n_train=400, rho=0.05, p=2.0)
        path = tmp_path / "run.samt"
        tracemalloc.start()
        try:
            write_trajectory(traj, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_trajectory(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert write_peak < 64 * 1024
        assert read_peak <= 1.1 * size
        _assert_same_run(back, traj)
