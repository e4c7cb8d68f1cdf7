"""Smoke test of tools/code_lines.py: its total is the sum of the
per-module counts, and blank lines, comment-only lines and docstrings are
not counted while code that shares a line with a comment is."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
two lines."""

import math  # counted: code before the comment

# a comment-only line


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return math.hypot(1, 2), text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_counts_code_only():
    # import, class, def, the two lines of the string, return.
    assert _tool().code_lines(SAMPLE) == 6


def test_total_is_the_sum_of_the_modules(capsys):
    assert _tool().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    *modules, total = (line.split() for line in lines)
    assert total[0] == "total" and len(modules) >= 10
    assert all(name.endswith(".py") and int(count) > 0 for name, count in modules)
    assert int(total[1]) == sum(int(count) for _, count in modules)
