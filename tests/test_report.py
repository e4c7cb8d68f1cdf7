import pytest

from samattr.errors import FormatError
from samattr.report import Report, RunRecord, emit_report, parse_report


def sample_report():
    report = Report("valuate", "ab" * 32)
    report.add("acc_retrain", [0.02, 0.05], [0.9, 0.85], [1.5, 2.5])
    report.add("acc_random", [0.02, 0.05], [0.95, 0.93])
    return report


class TestRunRecord:
    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            RunRecord("m", x=[1.0], y=[])

    def test_add_coerces_floats(self):
        report = Report("e", "d")
        report.add("m", [1, 2], [3, 4])
        assert report.runs[0].x == [1.0, 2.0]
        assert isinstance(report.runs[0].y[0], float)


class TestEmitAndParse:
    def test_round_trip(self, tmp_path):
        report = sample_report()
        paths = emit_report(report, str(tmp_path))
        assert len(paths) == 3  # one report + two plot files
        back = parse_report(paths[0])
        assert len(back.runs) == 2
        assert back.experiment_id == report.experiment_id
        assert back.config_digest == report.config_digest
        for orig, parsed in zip(report.runs, back.runs):
            assert parsed.metric == orig.metric
            assert parsed.x == orig.x and parsed.y == orig.y
            assert parsed.wall_times == orig.wall_times

    def test_plot_files_contain_only_xy(self, tmp_path):
        paths = emit_report(sample_report(), str(tmp_path))
        plot = [p for p in paths if p.endswith("acc_retrain.tsv")][0]
        lines = open(plot).read().splitlines()
        assert lines == ["0.02\t0.9", "0.05\t0.85"]

    def test_emit_is_deterministic(self, tmp_path):
        a = emit_report(sample_report(), str(tmp_path / "a"))
        b = emit_report(sample_report(), str(tmp_path / "b"))
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_float_precision_survives(self, tmp_path):
        report = Report("e", "d" * 64)
        ugly = [0.1 + 0.2, 1e-17, 123456789.123456789]
        report.add("m", [0.0, 1.0, 2.0], ugly)
        paths = emit_report(report, str(tmp_path))
        back = parse_report(paths[0])
        assert back.runs[0].y == ugly  # repr round-trips doubles exactly

    def test_empty_report_refused(self, tmp_path):
        with pytest.raises(FormatError):
            emit_report(Report("e", "d"), str(tmp_path))

    def test_parse_malformed_cell(self, tmp_path):
        path = tmp_path / "bad.report"
        path.write_text("experiment=e\tnonsense\n")
        with pytest.raises(FormatError, match="malformed"):
            parse_report(str(path))

    def test_parse_missing_field(self, tmp_path):
        path = tmp_path / "bad.report"
        path.write_text("experiment=e\tdigest=d\n")
        with pytest.raises(FormatError, match="missing"):
            parse_report(str(path))

    @pytest.mark.parametrize("second", ["experiment=f\tdigest=d", "experiment=e\tdigest=c"])
    def test_parse_mixed_records_rejected(self, tmp_path, second):
        path = tmp_path / "mixed.report"
        path.write_text(
            "experiment=e\tdigest=d\tmetric=a\tx=0.0\ty=1.0\twall=\n"
            f"{second}\tmetric=b\tx=0.0\ty=2.0\twall=\n"
        )
        with pytest.raises(FormatError, match=":2: experiment or digest differs"):
            parse_report(str(path))

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_parse_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.report"
        path.write_text(text)
        with pytest.raises(FormatError, match="no records"):
            parse_report(str(path))

    def test_filenames_embed_id_and_digest(self, tmp_path):
        paths = emit_report(sample_report(), str(tmp_path))
        digest8 = ("ab" * 32)[:8]
        assert paths[0].endswith(f"valuate_{digest8}.report")
        assert any(p.endswith(f"valuate_{digest8}_acc_random.tsv") for p in paths)
