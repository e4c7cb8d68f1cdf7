"""Benchmark runner for samattr.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's CLI jobs in-process through ``samattr.cli.main``, one
after another (a closed loop with one client), repeating the workload's
round of jobs while another round fits in ``--seconds``. The seed is the
config seed and, except on fullbatch-logistic, the dataset seed. Job
wall times are scaled to a reference host speed by sampling the host's
speed during each job (hostprobe.py), because the shared host's speed
drifts. Every job's output is checked: if-fast and hif scores against a
dense reference solve, every score for finiteness, and every repeat of a
job for byte-identical plot and trajectory files.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
untraced and then traced, and prints the per-layer metrics, measured by
wrapping the package's functions from outside (see tracer.py). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric definitions and the layer-to-metric map are in METRICS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# Fresh-interpreter set-ups timed per untraced run, within its --seconds.
# The run's own import of the package has already compiled its bytecode
# and warmed the file cache.
SETUP_SAMPLES = 5


@dataclasses.dataclass(frozen=True)
class Job:
    kind: str  # train | attribute | calibrate
    estimator: str | None = None  # if_fast | hif | gif

    @property
    def argv(self) -> list[str]:
        if self.estimator is None:
            return [self.kind]
        return [self.kind, "--estimator", self.estimator.replace("_", "-")]

    @property
    def label(self) -> str:
        return f"attribute_{self.estimator}" if self.kind == "attribute" else self.kind


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str  # config file text; {seed} is replaced by the workload seed
    jobs: tuple[Job, ...]
    # Every operation is expected to pass; a failed one makes the run
    # incorrect. False where failures are a measured, known defect.
    strict: bool


@dataclasses.dataclass
class Execution:
    round_no: int
    job: Job
    wall: float  # seconds, as measured
    scaled: float  # wall time at the reference host speed; the wall time if unsampled
    traced: bool = False


def _jobs(attribute: tuple[str, ...], calibrate: str, calibrates: int = 1) -> tuple[Job, ...]:
    """One round. The short train job runs four times before every other
    job and at the end, so its samples spread over the round."""
    train = (Job("train"),) * 4
    others = [*(Job("attribute", e) for e in attribute), *(Job("calibrate", calibrate),) * calibrates]
    return (*(j for job in others for j in (*train, job)), *train)


def _config(dataset: str, sample_size: int, extra: str = "") -> str:
    return f"dataset = {dataset}\nsample_size = {sample_size}\n{extra}seed = {{seed}}\n"


_MLP = "model = mlp\nactivation = tanh\neta = 0.1\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fullbatch-logistic",
            # One dataset for every seed: the seed varies initialisation and the
            # calibrate sample. Neumann iteration counts follow the dataset (their
            # summed work spreads 0.34 IQR/median over 40 blobs seeds), which no
            # run-to-run bound could absorb; see METRICS.md.
            _config("blobs(100, 10, 2, 3.0, 1)", 50, "model = logistic\nbatch_size = 0\nsteps = 60\n"),
            # Only one round fits in a run, so calibrate runs three times in it.
            _jobs(("if_fast", "hif", "gif"), "if_fast", calibrates=3),
            strict=True,
        ),
        Workload(
            "minibatch-mlp-oracle",
            _config("blobs(400, 20, 4, 3.0, {seed})", 40, _MLP + "hidden = 32\nbatch_size = 32\nsteps = 300\n"),
            _jobs(("gif", "gif"), "gif"),
            strict=True,
        ),
        Workload(
            "nonconvex-mlp-solve",
            _config("blobs(80, 10, 3, 3.0, {seed})", 16, _MLP + "hidden = 16\nbatch_size = 16\nsteps = 300\n"),
            _jobs(("if_fast",), "if_fast", calibrates=2),
            strict=False,
        ),
    )
}

# Configs of the same workloads on tiny problems, for the smoke test.
SMOKE_CONFIGS = {
    "fullbatch-logistic": _config("blobs(10, 3, 2, 3.0, 1)", 4, "model = logistic\nbatch_size = 0\nsteps = 60\n"),
    "minibatch-mlp-oracle": _config(
        "blobs(16, 5, 3, 3.0, {seed})", 4, _MLP + "hidden = 4\nbatch_size = 4\nsteps = 12\n"
    ),
    "nonconvex-mlp-solve": _config(
        "blobs(6, 3, 3, 3.0, {seed})", 3, _MLP + "hidden = 2\nbatch_size = 3\nsteps = 12\n"
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "attribute_s": "s",
    "calibrate_s": "s",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat == "bytes":
        return "B"
    if stat in ("calls", "rows", "operator_calls"):
        return "count"
    return "1"


# -- environment ---------------------------------------------------------


def _blas_threads() -> tuple[str | None, int | None]:
    """The OpenBLAS library loaded in this process and its thread count."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), int(fn())
    return (os.path.basename(libs[0]) if libs else None), None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "samattr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, load_1m: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- one run -------------------------------------------------------------


class Run:
    """State of one benchmark run: timings, operation counts, checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.config_path = str(work / "experiment.conf")
        Path(self.config_path).write_text(workload.config.format(seed=seed), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.executions: list[Execution] = []
        self.traced_rounds: list[list[int]] = []  # tracer job ids of each round
        # Reported by the last calibrate job; 0 when it failed.
        self.calibration = {"spearman": 0.0, "sign_agreement": 0.0}
        self._files: dict[tuple[str, str], str] = {}
        self._execution = 0
        self.job_labels: dict[int, str] = {}

    def prepare(self) -> None:
        """Problem size and dense references, outside every timed window."""
        from samattr import experiments

        from hostprobe import job_sampler
        from reference import reference_scores

        self.sampler = job_sampler()
        cfg = experiments.load_config(self.config_path)
        _, ds, _ = experiments.setup(cfg)
        self.n_train = int(ds.indices("train").size)
        self.sample_size = cfg.sample_size
        self.reference = {
            job.estimator: reference_scores(self.config_path, job.estimator)
            for job in self.workload.jobs
            if job.kind == "attribute" and job.estimator in ("if_fast", "hif")
        }

    def round(self, round_no: int, tracer=None) -> None:
        """Run the workload's round of jobs once. Untraced, each job runs
        under the host speed sampler, which scales its time. With a
        tracer, each job runs unsampled, untraced and then at once again
        traced, so the difference is the tracing cost."""
        ids = []
        for position, job in enumerate(self.workload.jobs):
            if tracer is None:
                self.executions.append(Execution(round_no, job, *self._execute(job, self.sampler)))
                continue
            self.executions.append(Execution(round_no, job, *self._execute(job)))
            self._execution += 1
            self.job_labels[self._execution] = f"r{round_no}:{position}:{job.label}"
            tracer.job = self._execution
            ids.append(self._execution)
            with tracer:
                self.executions.append(Execution(round_no, job, *self._execute(job), traced=True))
        if tracer is not None:
            self.traced_rounds.append(ids)

    def _execute(self, job: Job, sampler=None) -> tuple[float, float]:
        """Run one job; returns its wall time and, with a sampler, that
        time scaled to the reference host speed (else the wall time again)."""
        import samattr.cli

        out_dir = self.work / job.label
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [*job.argv, "--config", self.config_path, "--out", str(out_dir)]
        stdout = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(stdout):
                    return samattr.cli.main(argv)
            except Exception:  # a crashing job counts as failed operations
                traceback.print_exc()
                return None

        if sampler is None:
            start = time.perf_counter()
            rc = call()
            wall = scaled = time.perf_counter() - start
        else:
            rc, wall, scaled = sampler.timed(call)
        self._check(job, rc, out_dir, stdout.getvalue().split())
        return wall, scaled

    def _check(self, job: Job, rc, out_dir: Path, paths: list[str]) -> None:
        from samattr.report import parse_report

        ops = {"train": 1, "attribute": self.n_train, "calibrate": self.sample_size}[job.kind]
        self.attempted += ops
        if rc != 0 or not paths:
            self.failed += ops
            return
        for path in sorted(out_dir.iterdir()):
            if path.suffix in (".tsv", ".samt"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                first = self._files.setdefault((job.label, path.name), digest)
                if digest != first:
                    self.problems.append(f"{job.label}: {path.name} differs between repeats")
        ys = {run.metric: run.y for run in parse_report(paths[0]).runs}
        if job.kind == "train":
            ok = len(ys.get("train_loss", [])) == 1 and math.isfinite(ys["train_loss"][0])
            ok = ok and any(p.suffix == ".samt" and p.stat().st_size > 0 for p in out_dir.iterdir())
            self.failed += 0 if ok else 1
        elif job.kind == "attribute":
            import numpy as np

            from reference import misses

            scores = ys.get(f"influence_score_{job.estimator}", [])
            if len(scores) != self.n_train:
                self.problems.append(f"{job.label}: {len(scores)} scores for {self.n_train} points")
                self.failed += ops
                return
            ref = self.reference.get(job.estimator)
            bad = misses(scores, ref) if ref is not None else ~np.isfinite(scores)
            self.failed += int(bad.sum())
        else:
            est = job.estimator
            values = [ys.get(f"{k}_{est}", [float("nan")])[0] for k in ("pearson", "spearman", "sign_agreement")]
            ok = all(map(math.isfinite, values)) and ys.get(f"n_points_{est}") == [float(self.sample_size)]
            self.failed += 0 if ok else ops
            if ok:
                self.calibration = {"spearman": values[1], "sign_agreement": values[2]}

    @property
    def correct(self) -> bool:
        return not self.problems and not (self.workload.strict and self.failed)


def _rounds(run: Run, seconds: float, tracer=None) -> int:
    """Repeat rounds while another one fits in the time budget; returns
    the number of rounds."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        start = time.perf_counter()
        run.round(rounds, tracer)
        rounds += 1
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            return rounds


def _setup_samples(run: Run, count: int) -> list[float]:
    """Set-up times in fresh interpreters, scaled to the reference host
    speed inside each of them."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), run.config_path],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_scaled_s"])
    return samples


def end_to_end(run: Run, seconds: float, smoke: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    setups = _setup_samples(run, 1 if smoke else SETUP_SAMPLES)
    rounds = _rounds(run, seconds - (time.perf_counter() - start))
    attribute: dict[str, list[float]] = {}
    for ex in run.executions:
        if ex.job.kind == "attribute":
            attribute.setdefault(ex.job.estimator, []).append(ex.scaled)
    samples = {
        "setup_s": setups,
        "train_s": [ex.scaled for ex in run.executions if ex.job.kind == "train"],
        "calibrate_s": [ex.scaled for ex in run.executions if ex.job.kind == "calibrate"],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["attribute_s"] = sum(statistics.median(v) for v in attribute.values())
    metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = {k: len(v) for k, v in samples.items()}
    counts["attribute_s"] = sum(len(v) for v in attribute.values())
    counts["rounds"] = rounds
    return metrics, counts


def per_layer(run: Run, seconds: float, import_s: float, spans_path: Path) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    rounds = _rounds(run, seconds, tracer)
    per_round = [tracer.summary(ids) for ids in run.traced_rounds]
    first = per_round[0]
    for other in per_round[1:]:
        for key, value in first.items():
            if key.rsplit(".", 1)[-1] in ("calls", "rows", "operator_calls") and other[key] != value:
                run.problems.append(f"traced rounds disagree on {key}: {value} vs {other[key]}")
    metrics = {
        key: statistics.median(r[key] for r in per_round) if key.endswith("_s") else value
        for key, value in first.items()
    }
    metrics["cli.import_s"] = import_s
    metrics["oracle.calibrate_estimator.spearman"] = run.calibration["spearman"]
    metrics["oracle.calibrate_estimator.sign_agreement"] = run.calibration["sign_agreement"]
    traced = sum(ex.wall for ex in run.executions if ex.traced)
    untraced = sum(ex.wall for ex in run.executions if not ex.traced)
    metrics["tracing.overhead_s"] = (traced - untraced) / rounds
    metrics["tracing.overhead_frac"] = (traced - untraced) / untraced
    tracer.write(str(spans_path), run.job_labels)
    counts = {"rounds": rounds, "spans": tracer.span_count()}
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes (smoke test)")
    args = parser.parse_args(argv)
    load_1m = os.getloadavg()[0]

    # Time the package import before anything else pulls in numpy/scipy.
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    start = time.perf_counter()
    try:
        import samattr
        import samattr.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import samattr from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(samattr.__file__).resolve().parent != SRC / "samattr":
        print(f"samattr was imported from {samattr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = dataclasses.replace(workload, config=SMOKE_CONFIGS[workload.name])
    env = environment(args.seed, load_1m)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_ROOT / f"{tag}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, args.seed, work)
        run.prepare()
        if args.trace:
            metrics, counts = per_layer(run, args.seconds, import_s, OUT_ROOT / f"spans-{tag}.tsv")
            units = {k: _unit(k) for k in metrics}
        else:
            metrics, counts = end_to_end(run, args.seconds, args.smoke)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(counts, sort_keys=True))
    print("calibration " + json.dumps(run.calibration, sort_keys=True))
    for ex in run.executions:
        traced = " traced" if ex.traced else ""
        print(f"job r{ex.round_no} {ex.job.label}{traced} wall {ex.wall!r} s scaled {ex.scaled!r} s")
    for problem in run.problems:
        print("problem " + problem)
    for key in sorted(metrics):
        print(f"metric {key} = {metrics[key]!r} {units[key]}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
