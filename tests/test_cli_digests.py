"""Smoke test of tools/cli_digests.py: two runs of a tiny config and a
tiny CSV config (split by setup) into different directories give the same
digests, each trajectory file has a decoded-content line, and a --src the
imported samattr does not come from is refused."""

import importlib.util
import sys
from pathlib import Path

import samattr.cli  # noqa: F401  (imported from this tree's src)
from samattr.samtrain import read_trajectory, write_trajectory

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"

TINY = """dataset = blobs(16, 5, 3, 3.0, 2)
model = mlp
hidden = 4
eta = 0.1
batch_size = 4
steps = 12
sample_size = 4
flip_fraction = 0.1
seed = 3
"""
# The same run over a CSV the tool writes, which setup splits 18/6/6.
TINY_CSV = TINY.replace("blobs(16, 5, 3, 3.0, 2)", "csv:tiny.csv\nval_fraction = 0.2\n"
                        "test_fraction = 0.2")


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digests(tmp_path):
    tool = _tool()
    configs = {"tiny": TINY, "tiny-csv": TINY_CSV}
    files = {"tiny.csv": tool.mixture_csv(30, 5, 3, 0.5, 3)}
    runs = [tool.digests(configs, tmp_path / run, files) for run in ("a", "b")]
    assert runs[0] == runs[1]
    jobs = [line for line in runs[0] if " exit=" in line]
    assert len(jobs) == 2 * (1 + 6 * 3) and all(" exit=0 " in line for line in jobs)
    files = [line.split()[0] for line in runs[0] if " exit=" not in line]
    assert {Path(f).suffix for f in files} == {".tsv", ".npy", ".samt", ".report"}
    # Each train job's .samt file has its raw line, then its decoded line,
    # which a rewrite of what read_trajectory returned keeps.
    samt = [i for i, line in enumerate(runs[0]) if ".samt " in line and "decoded=" not in line]
    assert [runs[0][i].split("/")[:2] for i in samt] == [["tiny", "train"], ["tiny-csv", "train"]]
    for i in samt:
        name = runs[0][i].split()[0]
        path = tmp_path / "a" / name
        assert runs[0][i + 1] == f"{name} decoded={tool.trajectory_digest(path)}"
        write_trajectory(read_trajectory(path), tmp_path / "rewritten.samt")
        assert tool.trajectory_digest(tmp_path / "rewritten.samt") == tool.trajectory_digest(path)
    # The lines do not depend on where the outputs were written.
    assert not any(str(tmp_path) in line for line in runs[0])


def test_a_package_from_elsewhere_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts its --src first
    assert _tool().main(["--src", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not from" in captured.err


def test_a_failing_job_makes_the_exit_status_1(tmp_path, capsys, monkeypatch):
    # Every job of the second config exits 2 (steps = 0 is a configuration
    # error); every line is still printed, and then the status is 1.
    monkeypatch.setattr(sys, "path", sys.path[:])
    tool = _tool()
    bad = TINY.replace("steps = 12", "steps = 0")
    monkeypatch.setattr(tool, "CONFIGS", {"tiny": TINY, "bad": bad})
    assert tool.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    jobs = [line for line in lines if " exit=" in line]
    assert len(jobs) == 2 * (1 + 6 * 3)
    assert all(" exit=0 " in line for line in jobs if line.startswith("tiny/"))
    assert all(" exit=2 " in line for line in jobs if line.startswith("bad/"))
    assert any(line.startswith("tiny/train/") for line in lines)
