"""No CLI call pays for importing scipy.

Importing scipy.stats alone takes over a second, more than most CLI
commands spend on their work, so the package must not import any part of
scipy, at import time or while a command runs. Only module names are
checked; a wall-time gate would be too noisy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_modules_after(code: str) -> str:
    """Runs code in a fresh interpreter; the scipy modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", ["samattr", "samattr.cli"])
def test_import_loads_no_scipy_module(module):
    loaded = _scipy_modules_after(f"import {module}")
    assert loaded == "", f"import {module} loaded scipy modules: {loaded}"


@pytest.mark.parametrize("argv", [["attribute", "--estimator", "hif"], ["calibrate"]])
def test_commands_load_no_scipy_module(tmp_path, argv):
    # The Hessian estimators' solves and calibrate's correlations are NumPy only.
    config = tmp_path / "exp.conf"
    config.write_text(
        f"dataset = blobs(24, 4, 2, 2.5, 3)\nsteps = 20\nsample_size = 3\nout = {tmp_path / 'out'}\n"
    )
    loaded = _scipy_modules_after(
        f"from samattr.cli import main\nassert main({[*argv, '--config', str(config)]!r}) == 0"
    )
    assert loaded == "", f"{' '.join(argv)} loaded scipy modules: {loaded}"
