import numpy as np
import pytest

from samattr.errors import ConfigError, InvalidInputError
from samattr.experiments import (
    ExperimentConfig,
    cmd_attribute,
    cmd_detect_noise,
    cmd_edit,
    cmd_trace,
    cmd_train,
    cmd_valuate,
    load_config,
    rank_ascending,
    rank_descending,
    setup,
)

FAST_DATASET = "blobs(30, 4, 2, 2.5, 3)"


def fast_config(**kw):
    base = dict(
        dataset=FAST_DATASET,
        rho=0.05,
        lam=0.1,
        eta="0.5",
        steps=120,
        batch_size=0,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_estimator_normalization(self):
        cfg = ExperimentConfig(estimator="if-fast")
        assert cfg.estimator == "if_fast"

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(estimator="magic")

    def test_parsed_eta_constant(self):
        assert ExperimentConfig(eta="0.25").parsed_eta() == 0.25

    def test_parsed_eta_schedule(self):
        cfg = ExperimentConfig(eta="0:0.5,100:0.05")
        assert cfg.parsed_eta() == ((0, 0.5), (100, 0.05))

    def test_parsed_eta_malformed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(eta="0:0.5,oops").parsed_eta()

    def test_digest_is_hex_and_field_sensitive(self):
        a = ExperimentConfig(seed=1).digest()
        b = ExperimentConfig(seed=2).digest()
        assert len(a) == 64 and int(a, 16) >= 0
        assert a != b

    def test_flip_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(flip_fraction=0.9)


class TestLoadConfig:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# comment line\n"
            "dataset = blobs(30, 4, 2, 2.5, 3)\n"
            "lambda = 0.02   # inline comment\n"
            "steps=50\n"
            "eta = 0:0.5,25:0.1\n"
            "removal_fractions = 0.1,0.2\n"
            "epoch_shuffled = true\n"
        )
        cfg = load_config(str(path))
        assert cfg.lam == 0.02
        assert cfg.steps == 50
        assert cfg.removal_fractions == (0.1, 0.2)
        assert cfg.epoch_shuffled is True
        assert cfg.parsed_eta() == ((0, 0.5), (25, 0.1))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("frobnicate = 7\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("steps = soon\n")
        with pytest.raises(ConfigError, match="steps"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.conf")

    def test_unknown_gif_mode(self, tmp_path):
        # Checked at load for every estimator, not when gif first runs.
        path = tmp_path / "exp.conf"
        path.write_text("estimator = if-fast\ngif_mode = sdg\n")
        with pytest.raises(ConfigError, match="gif mode 'sdg'"):
            load_config(str(path))
        for mode in ("gd", "sgd"):
            path.write_text(f"gif_mode = {mode}\n")
            assert load_config(str(path)).gif_mode == mode

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("seed = 1\nout = a\n")
        cfg = load_config(str(path), {"seed": 9, "out": None})
        assert cfg.seed == 9
        assert cfg.out == "a"  # None override leaves the file value


class TestSetup:
    def test_blobs_logistic(self):
        spec, ds, sam = setup(fast_config())
        assert spec.kind == "logistic"
        assert spec.layer_sizes == (4, 2)
        assert sam.batch_size == 30  # batch_size 0 means full batch
        assert ds.indices("val").size > 0

    def test_mlp_hidden_sizes(self):
        spec, _, _ = setup(fast_config(model="mlp", hidden=(6, 5)))
        assert spec.layer_sizes == (4, 6, 5, 2)

    def test_csv_gets_auto_split(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = "\n".join(f"{i}.0,{i % 2}" for i in range(20))
        path.write_text("a,label\n" + rows + "\n")
        spec, ds, _ = setup(fast_config(dataset=str(path), val_fraction=0.2, test_fraction=0.2))
        assert ds.indices("train").size == 12
        assert ds.indices("val").size == 4
        assert ds.indices("test").size == 4


class TestRanking:
    def test_descending(self):
        order = rank_descending(np.array([0.5, 2.0, -1.0]))
        assert order.tolist() == [1, 0, 2]

    def test_ascending(self):
        order = rank_ascending(np.array([0.5, 2.0, -1.0]))
        assert order.tolist() == [2, 0, 1]

    def test_ties_break_to_smaller_index(self):
        scores = np.array([1.0, 1.0, 1.0])
        assert rank_descending(scores).tolist() == [0, 1, 2]
        assert rank_ascending(scores).tolist() == [0, 1, 2]


class TestDrivers:
    def test_train_writes_trajectory_and_metrics(self, tmp_path):
        cfg = fast_config(out=str(tmp_path))
        report = cmd_train(cfg)
        metrics = {run.metric for run in report.runs}
        assert {"train_loss", "train_acc", "val_acc", "test_acc"} <= metrics
        assert (tmp_path / f"trajectory_{cfg.digest()[:8]}.samt").exists()

    def test_attribute_scores_every_point(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), estimator="if_fast", neumann_order=2000)
        report = cmd_attribute(cfg)
        run = report.runs[0]
        assert run.metric == "influence_score_if_fast"
        assert len(run.y) == 30
        assert run.x == [float(i) for i in range(30)]

    def test_valuate_curves(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), removal_fractions=(0.0, 0.1), neumann_order=2000)
        report = cmd_valuate(cfg)
        by_metric = {run.metric: run for run in report.runs}
        assert by_metric["acc_retrain"].x == [0.0, 0.1]
        assert len(by_metric["acc_retrain"].wall_times) == 1  # one sweep for every fraction
        # Removing nothing must reproduce the baseline exactly.
        assert by_metric["acc_retrain"].y[0] == by_metric["acc_baseline"].y[0]
        assert by_metric["acc_edit"].y[0] == by_metric["acc_baseline"].y[0]
        for run in report.runs:
            assert all(0.0 <= v <= 1.0 for v in run.y)

    def test_detect_noise_recall_curves(self, tmp_path):
        cfg = fast_config(
            out=str(tmp_path),
            dataset="blobs(40, 4, 2, 3.0, 5)",
            flip_fraction=0.1,
            removal_fractions=(0.1,),
            neumann_order=2000,
            seed=5,
        )
        report = cmd_detect_noise(cfg)
        by_metric = {run.metric: run for run in report.runs}
        recall = by_metric["recall_is"]
        assert len(recall.x) == 20
        # Recall is monotone nondecreasing and reaches 1 at full inspection.
        assert all(b >= a for a, b in zip(recall.y, recall.y[1:]))
        assert recall.y[-1] == 1.0
        assert by_metric["recall_random"].y[-1] == 1.0

    def test_detect_noise_requires_flips(self):
        with pytest.raises(ConfigError):
            cmd_detect_noise(fast_config(flip_fraction=0.0))

    def test_trace_reports_misclassified(self, tmp_path):
        cfg = fast_config(
            out=str(tmp_path),
            dataset="blobs(40, 4, 2, 1.0, 7)",  # heavy overlap: guaranteed mistakes
            top_m=3,
            max_trace_points=2,
            neumann_order=2000,
            seed=7,
        )
        report = cmd_trace(cfg)
        by_metric = {run.metric: run for run in report.runs}
        count = by_metric["misclassified_count"].y[0]
        assert count >= 1
        helpful = [r for r in report.runs if r.metric.startswith("helpful_test")]
        harmful = [r for r in report.runs if r.metric.startswith("harmful_test")]
        assert len(helpful) == len(harmful) == min(int(count), 2)
        for run in helpful:
            assert len(run.x) == 3
            # Scores listed best-first.
            assert all(b <= a for a, b in zip(run.y, run.y[1:]))

    def test_edit_explicit_indices(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), edit_indices=(0, 3), neumann_order=2000)
        report = cmd_edit(cfg)
        by_metric = {run.metric: run for run in report.runs}
        assert 0.0 <= by_metric["param_distance_rel"].y[0] < 1.0
        assert (tmp_path / f"edited_params_{cfg.digest()[:8]}.npy").exists()

    def test_edit_indices_out_of_range(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), edit_indices=(999,))
        with pytest.raises(ConfigError):
            cmd_edit(cfg)

    def test_edit_indices_repeated(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), edit_indices=(2, 2))
        with pytest.raises(ConfigError, match="distinct"):
            cmd_edit(cfg)

    def test_valuate_removing_every_point_is_named(self, tmp_path):
        cfg = fast_config(out=str(tmp_path), removal_fractions=(1.0,), neumann_order=2000)
        with pytest.raises(InvalidInputError, match="leaves none"):
            cmd_valuate(cfg)


class TestBooleanValues:
    @pytest.mark.parametrize(
        "text,expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_accepted_spellings(self, tmp_path, text, expected):
        path = tmp_path / "exp.conf"
        path.write_text(f"epoch_shuffled = {text}\n")
        assert load_config(str(path)).epoch_shuffled is expected

    @pytest.mark.parametrize("text", ["ture", "2", "on", "y", ""])
    def test_anything_else_names_the_key(self, tmp_path, text):
        path = tmp_path / "exp.conf"
        path.write_text(f"epoch_shuffled = {text}\n")
        with pytest.raises(ConfigError, match="epoch_shuffled"):
            load_config(str(path))


class TestDigestLeavesOutOut:
    def test_out_does_not_change_the_digest(self):
        assert ExperimentConfig(out="a").digest() == ExperimentConfig(out="b").digest()
        assert ExperimentConfig(out="a", seed=1).digest() != ExperimentConfig(out="a").digest()


class TestDigestHashesValuesAsUsed:
    def test_equal_eta_schedules_share_a_digest(self):
        assert ExperimentConfig(eta="0.5").digest() == ExperimentConfig(eta=".5").digest()
        assert (ExperimentConfig(eta="0:0.5,100:.05").digest()
                == ExperimentConfig(eta=" 0:.50,100:0.05").digest())

    def test_mlp_keys_do_not_change_a_logistic_digest(self):
        base = ExperimentConfig(model="logistic", hidden=(8,), activation="tanh").digest()
        assert ExperimentConfig(model="logistic", hidden=(16,)).digest() == base
        assert ExperimentConfig(model="logistic", activation="relu").digest() == base

    def test_real_differences_change_the_digest(self):
        base = ExperimentConfig()
        assert ExperimentConfig(eta="0.25").digest() != base.digest()
        assert ExperimentConfig(eta="0:0.5,100:0.05").digest() != base.digest()
        mlp = ExperimentConfig(model="mlp")
        assert mlp.digest() != base.digest()
        assert ExperimentConfig(model="mlp", hidden=(16,)).digest() != mlp.digest()
        assert ExperimentConfig(model="mlp", activation="relu").digest() != mlp.digest()
