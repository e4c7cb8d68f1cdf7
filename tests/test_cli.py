import numpy as np
import pytest

from samattr.cli import main
from samattr.report import parse_report


def write_config(tmp_path, **kw):
    base = dict(
        dataset="blobs(30, 4, 2, 2.5, 3)",
        lam=0.1,
        eta=0.5,
        steps=120,
        batch_size=0,
        seed=3,
        neumann_order=2000,
        out=str(tmp_path / "out"),
    )
    base.update(kw)
    path = tmp_path / "exp.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


class TestExitCodes:
    def test_train_ok(self, tmp_path, capsys):
        code = main(["train", "--config", write_config(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.endswith(".report") for line in out)

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.conf")]) == 2

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("nonsense = 1\n")
        assert main(["train", "--config", str(path)]) == 2

    def test_divergence(self, tmp_path):
        cfg = write_config(tmp_path, eta=1e9, steps=50, lam=0.0)
        assert main(["train", "--config", cfg]) == 3

    def test_calibrate_reports_a_diverging_model_as_train_does(self, tmp_path, capsys):
        # calibrate trains its model inside its retrain sweep; a model that
        # diverges still reads as training, not as a retrain.
        cfg = write_config(tmp_path, dataset="blobs(60, 5, 2, 3.0, 1)", eta=1e4, batch_size=8,
                           steps=50, sample_size=5, seed=3)
        assert main(["train", "--config", cfg]) == 3
        train_err = capsys.readouterr().err
        assert main(["calibrate", "--config", cfg]) == 3
        assert capsys.readouterr().err == train_err
        assert train_err.startswith("numerical divergence: training diverged at step ")

    def test_unwritable_output(self, tmp_path):
        cfg = write_config(tmp_path, out="/proc/definitely/not/writable")
        assert main(["train", "--config", cfg]) == 4

    def test_detect_noise_without_flips_is_config_error(self, tmp_path):
        assert main(["detect-noise", "--config", write_config(tmp_path)]) == 2

    def test_edit_repeated_indices_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, edit_indices="2,2")
        assert main(["edit", "--config", cfg]) == 2

    def test_calibrate_negative_sample_size_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sample_size=-3)
        assert main(["calibrate", "--config", cfg]) == 2
        assert "sample_size" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # NumPy's seeding would raise a bare ValueError (exit 1, a traceback).
        assert main(["train", "--config", write_config(tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"

    @pytest.mark.parametrize("key", ["top_m", "max_trace_points"])
    def test_negative_trace_count_is_config_error(self, tmp_path, capsys, key):
        # A negative count would slice from the end: 38-point "top" lists of 40.
        cfg = write_config(tmp_path, dataset="blobs(40, 4, 2, 0.8, 1)", steps=30, **{key: -2})
        assert main(["trace", "--config", cfg]) == 2
        assert "must be >= 0" in capsys.readouterr().err


class TestOverrides:
    def test_seed_override_changes_digest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["train", "--config", cfg, "--seed", "77"]) == 0
        second = capsys.readouterr().out
        assert first != second  # different digest in the file names

    def test_estimator_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["attribute", "--config", cfg, "--estimator", "gif"]) == 0
        out = capsys.readouterr().out
        report_path = [l for l in out.splitlines() if l.endswith(".report")][0]
        report = parse_report(report_path)
        assert report.runs[0].metric == "influence_score_gif"

    def test_out_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["train", "--config", cfg, "--out", str(other)]) == 0
        out = capsys.readouterr().out
        assert str(other) in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("attribute", {}),
            ("valuate", {"removal_fractions": "0.1"}),
            ("detect-noise", {"flip_fraction": 0.1, "removal_fractions": "0.1"}),
            ("edit", {"edit_indices": "0,2"}),
        ],
    )
    def test_plot_files_byte_identical_across_reruns(self, tmp_path, capsys, command, extra):
        plots = []
        for run_dir in ("first", "second"):
            cfg = write_config(tmp_path, out=str(tmp_path / run_dir), **extra)
            assert main([command, "--config", cfg]) == 0
            out = capsys.readouterr().out.splitlines()
            plots.append(sorted(p for p in out if p.endswith(".tsv")))
        assert len(plots[0]) >= 1
        for a, b in zip(plots[0], plots[1]):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_trajectory_byte_identical(self, tmp_path):
        for run_dir in ("first", "second"):
            cfg = write_config(tmp_path, out=str(tmp_path / run_dir))
            assert main(["train", "--config", cfg]) == 0
        first = list((tmp_path / "first").glob("*.samt"))[0]
        second = list((tmp_path / "second").glob("*.samt"))[0]
        assert first.read_bytes() == second.read_bytes()

    def test_edited_params_identical(self, tmp_path):
        params = []
        for run_dir in ("first", "second"):
            cfg = write_config(tmp_path, out=str(tmp_path / run_dir), edit_indices="1,4")
            assert main(["edit", "--config", cfg]) == 0
            path = list((tmp_path / run_dir).glob("edited_params_*.npy"))[0]
            params.append(np.load(path))
        np.testing.assert_array_equal(params[0], params[1])


class TestConfigValues:
    def test_misspelt_boolean_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epoch_shuffled="ture")
        assert main(["train", "--config", cfg]) == 2
        assert "epoch_shuffled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,extra", [("train", {}), ("edit", {"edit_indices": "1,4"})]
    )
    def test_out_directory_leaves_file_names_and_contents_alone(
        self, tmp_path, capsys, command, extra
    ):
        cfg = write_config(tmp_path, **extra)
        dirs = [tmp_path / "first", tmp_path / "second"]
        for run_dir in dirs:
            assert main([command, "--config", cfg, "--out", str(run_dir)]) == 0
        capsys.readouterr()
        names = [sorted(p.name for p in d.iterdir()) for d in dirs]
        assert names[0] == names[1]
        assert any(name.endswith(".tsv") for name in names[0])
        for name in names[0]:
            if name.endswith(".tsv"):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
