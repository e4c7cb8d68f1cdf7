"""No CLI call pays for importing scipy or a process-pool module.

Importing scipy.stats alone takes over a second, more than most CLI
commands spend on their work, so the package must not import any part of
scipy, at import time or while a command runs. The removal oracle spreads
its retrain blocks over CPUs with a bare os.fork, so multiprocessing and
concurrent.futures (and their import time and memory) stay unloaded too.
Only module names are checked; a wall-time gate would be too noisy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
POOL_MODULES = ("multiprocessing", "concurrent")


def _modules_after(code: str, roots) -> str:
    """Runs code in a fresh interpreter; the modules under the given
    top-level package names that it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += f"\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r})))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _run_cli(tmp_path, argv, n: int, sample_size: int, roots) -> str:
    """Runs the CLI in a fresh interpreter on an n-point problem; the
    modules under roots that it left loaded."""
    config = tmp_path / "exp.conf"
    config.write_text(
        f"dataset = blobs({n}, 4, 2, 2.5, 3)\nsteps = 20\nsample_size = {sample_size}\n"
        f"out = {tmp_path / 'out'}\n"
    )
    return _modules_after(
        f"from samattr.cli import main\nassert main({[*argv, '--config', str(config)]!r}) == 0", roots
    )


@pytest.mark.parametrize("module", ["samattr", "samattr.cli"])
def test_import_loads_no_scipy_module(module):
    loaded = _modules_after(f"import {module}", ("scipy",))
    assert loaded == "", f"import {module} loaded scipy modules: {loaded}"


@pytest.mark.parametrize("argv", [["attribute", "--estimator", "hif"], ["calibrate"]])
def test_commands_load_no_scipy_module(tmp_path, argv):
    # The Hessian estimators' solves and calibrate's correlations are NumPy only.
    loaded = _run_cli(tmp_path, argv, 24, 3, ("scipy",))
    assert loaded == "", f"{' '.join(argv)} loaded scipy modules: {loaded}"


def test_import_loads_no_process_pool_module():
    loaded = _modules_after("import samattr.cli", POOL_MODULES)
    assert loaded == "", f"import samattr.cli loaded {loaded}"


def test_two_block_calibrate_loads_no_process_pool_module(tmp_path):
    # 40 sampled retrains are two blocks: forked when the box has two CPUs.
    loaded = _run_cli(tmp_path, ["calibrate"], 48, 40, (*POOL_MODULES, "scipy"))
    assert loaded == "", f"calibrate loaded {loaded}"
