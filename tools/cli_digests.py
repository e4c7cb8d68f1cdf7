"""SHA-256 digests of every CLI output file, to show that a change keeps
the command outputs byte-identical.

Usage (from the repository root):

    python3 tools/cli_digests.py [--src DIR]

Runs `train`, then `attribute`, `calibrate`, `valuate`, `edit`, `trace`
and `detect-noise` with each estimator (if-fast, hif, gif), in this
process through samattr.cli.main, on each config: the three benchmark
workloads' configs at seed 9317 (with `flip_fraction = 0.1` added, which
only detect-noise reads), README's example config, and five configs for
paths those four never run: a relu MLP with p = 3, a step-decay eta, an
epoch-shuffled schedule and gif's gd mode; a tanh MLP with p = 1.5, whose
ascent's dual exponent q = 3 lies on the other side of 2 from p = 3's
q = 1.5; a 10-class tanh MLP (the class-axis reduction of 8 or more
classes); `csv-split`, CSV ingestion and setup's seeded split into
shuffled val and test rows, over a CSV of an overlapping 3-class Gaussian
mixture that this script writes with NumPy alone; and `shrinking-batch`,
whose largest valuate and detect-noise removal sets leave fewer train
points (12 of 24) than the batch size (16), so those retrains' replayed
batches shrink to the points kept. The outputs go to a temporary
directory that is removed; the jobs run there, so the config names its
CSV by a relative path. It prints the
path of the samattr package it imported, then one line per job, its exit
code and the SHA-256 of its stderr, then one line per output file: the
SHA-256 of every `.tsv`, `.npy` and `.samt` file as written, and of every
`.report` file with its `wall=` values removed, since wall times differ
from run to run. Each `.samt` file gets one more line, `decoded=`: the
SHA-256 of what the imported package's read_trajectory returns (params,
batches, etas and weights, with their dtypes and shapes, then n_train, rho,
p and the config digest), so a change of the file layout alone shows in
the raw lines only. Lines name the config, the job and the file, not the
output directory, so two runs compare with diff:

    python3 tools/cli_digests.py --src /path/to/other/tree/src > old.txt
    python3 tools/cli_digests.py > new.txt
    diff old.txt new.txt

When the outputs match, the diff shows only the first lines, which name
the two packages. --src picks the directory to import samattr from
(default: this tree's src), so a tree without this script can be measured
too; the script exits with status 2 if samattr is not imported from there.
It exits with status 1, after printing every line, when any job exits
non-zero, so a job that fails on both trees does not pass the diff unseen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

_MLP = "model = mlp\nactivation = tanh\neta = 0.1\n"
_NOISE = "flip_fraction = 0.1\n"

SEED = 9317
_NOISE_SEED = _NOISE + f"seed = {SEED}\n"

CONFIGS = {
    "fullbatch-logistic": "dataset = blobs(100, 10, 2, 3.0, 1)\nsample_size = 50\n"
                          "model = logistic\nbatch_size = 0\nsteps = 60\n" + _NOISE_SEED,
    "minibatch-mlp-oracle": f"dataset = blobs(400, 20, 4, 3.0, {SEED})\nsample_size = 40\n" + _MLP
                            + "hidden = 32\nbatch_size = 32\nsteps = 300\n" + _NOISE_SEED,
    "nonconvex-mlp-solve": f"dataset = blobs(80, 10, 3, 3.0, {SEED})\nsample_size = 16\n" + _MLP
                           + "hidden = 16\nbatch_size = 16\nsteps = 300\n" + _NOISE_SEED,
    "readme-example": "dataset = blobs(200, 10, 2, 3.0, 1)\nlambda = 1.0\neta = 0.5\nsteps = 60\n"
                      "batch_size = 0          # full batch\nestimator = if-fast\n"
                      "neumann_order = 2000\nout = results\n" + _NOISE,
    "relu-p3": f"dataset = blobs(120, 8, 3, 2.0, {SEED})\nmodel = mlp\nactivation = relu\n"
               "p = 3\nhidden = 12\nbatch_size = 24\nsteps = 200\neta = 0:0.1,100:0.05\n"
               "epoch_shuffled = 1\ngif_mode = gd\n" + _NOISE_SEED,
    "tanh-p1.5": f"dataset = blobs(60, 6, 3, 2.0, {SEED})\n" + _MLP + "p = 1.5\nhidden = 8\n"
                 "batch_size = 12\nsteps = 100\nsample_size = 12\n" + _NOISE_SEED,
    "tanh-10-class": f"dataset = blobs(300, 12, 10, 3.0, {SEED})\n" + _MLP
                     + "hidden = 16\nbatch_size = 32\nsteps = 200\n" + _NOISE_SEED,
    "csv-split": "dataset = csv:mixture.csv\nval_fraction = 0.2\ntest_fraction = 0.2\n"
                 "sample_size = 20\n" + _MLP + "hidden = 8\nbatch_size = 16\nsteps = 100\n"
                 + _NOISE_SEED,
    "shrinking-batch": f"dataset = blobs(24, 5, 3, 2.0, {SEED})\n" + _MLP + "hidden = 6\n"
                       "batch_size = 16\nsteps = 60\nremoval_fractions = 0.1, 0.3, 0.5\n"
                       + _NOISE_SEED,
}
COMMANDS = ("attribute", "calibrate", "valuate", "edit", "trace", "detect-noise")
ESTIMATORS = ("if-fast", "hif", "gif")
HASHED = (".tsv", ".npy", ".samt", ".report")


def mixture_csv(n: int, d: int, C: int, scale: float, seed: int) -> str:
    """CSV text of n rows of a seeded C-class Gaussian mixture in d features:
    unit-variance clusters around standard-normal means times scale, so the
    classes overlap, labels in round-robin order; floats written with repr."""
    rng = np.random.default_rng(seed)
    means = scale * rng.standard_normal((C, d))
    labels = np.arange(n) % C
    X = means[labels] + rng.standard_normal((n, d))
    rows = [",".join([*(repr(float(v)) for v in x), str(c)]) for x, c in zip(X, labels)]
    return "\n".join([",".join([*(f"x{j}" for j in range(d)), "label"]), *rows]) + "\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".report":
        data = re.sub(rb"wall=[^\t\n]*", b"wall=", data)
    return _sha(data)


def trajectory_digest(path: Path) -> str:
    """SHA-256 of a trajectory file's decoded content, read by the imported
    samattr: each array's dtype, shape and bytes, then n_train, rho, p and
    the config digest."""
    from samattr.samtrain import read_trajectory

    traj = read_trajectory(path)
    h = hashlib.sha256()
    for array in (traj.params, traj.batches, traj.etas, traj.weights):
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    h.update(struct.pack("<Qdd", traj.n_train, traj.rho, traj.p) + traj.config_digest)
    return h.hexdigest()


def digests(configs: dict[str, str], out: Path, files: dict[str, str] | None = None) -> list[str]:
    """Write files (name -> text) into out, run every job of every config
    (name -> config text) with out as the working directory, and return
    the job and file lines."""
    from samattr import cli

    jobs = [("train", None)] + [(c, e) for c in COMMANDS for e in ESTIMATORS]
    lines = []
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    for name, text in (files or {}).items():
        (out / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(out)  # a config names its files relative to out
    try:
        for name, text in configs.items():
            conf = out / f"{name}.conf"
            conf.write_text(text, encoding="utf-8")
            for command, estimator in jobs:
                job = command if estimator is None else f"{command}.{estimator}"
                job_out = out / name / job
                argv = [command, "--config", str(conf), "--out", str(job_out)]
                argv += ["--estimator", estimator] if estimator else []
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                lines.append(f"{name}/{job} exit={code} stderr={_sha(err.getvalue().encode())}")
                for path in sorted(job_out.glob("*")):
                    if path.suffix in HASHED:
                        lines.append(f"{name}/{job}/{path.name} {file_digest(path)}")
                    if path.suffix == ".samt":
                        lines.append(f"{name}/{job}/{path.name} decoded={trajectory_digest(path)}")
    finally:
        os.chdir(cwd)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding samattr")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from samattr import cli

    package = Path(cli.__file__).resolve().parent
    if not package.is_relative_to(src):
        print(f"cli_digests: samattr was imported from {package}, not from {src}", file=sys.stderr)
        return 2
    print(f"samattr {package}")
    with tempfile.TemporaryDirectory() as out:
        files = {"mixture.csv": mixture_csv(150, 6, 3, 0.5, SEED)}
        lines = digests(CONFIGS, Path(out), files)
    for line in lines:
        print(line)
    return 1 if any(" exit=" in line and " exit=0 " not in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
