"""No CLI call pays for importing scipy.

Importing scipy.stats alone takes over a second, more than most CLI
commands spend on their work, so the package must not import any part of
scipy at import time. Only module names are checked; a wall-time gate
would be too noisy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["samattr", "samattr.cli"])
def test_import_loads_no_scipy_module(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"import {module} loaded scipy modules: {proc.stdout}"
