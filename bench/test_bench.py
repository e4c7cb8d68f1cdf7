"""Smoke test of the benchmark runner: every workload, on tiny problems,
through the same code path, prints every metric that BENCHMARK.json names.

Run from the repository root:  python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.SMOKE_CONFIGS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_workload_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "minibatch-mlp-oracle":
        assert result["metrics"]["model.hvp.calls"]["value"] == 0


def test_tracer_patches_every_binding_and_restores_them():
    import samattr.cli  # noqa: F401
    from samattr import cli, experiments, influence, oracle, samtrain

    from tracer import Tracer

    original = samtrain.train_sam
    with Tracer() as tracer:
        assert experiments.train_sam is samtrain.train_sam is oracle.train_sam
        assert experiments.train_sam is not original
        bound = set(tracer.bindings())
    assert {
        "samattr.experiments.train_sam",
        "samattr.oracle.compute_influence",
        "samattr.oracle.sample_batches",
        "samattr.influence.worst_perturbation",
        "samattr.cli.emit_report",
    } <= bound
    assert experiments.train_sam is original and influence.worst_perturbation is samtrain.worst_perturbation
    assert cli.main.__module__ == "samattr.cli"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fullbatch-logistic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
