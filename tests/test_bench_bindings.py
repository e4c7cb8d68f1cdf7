"""Names the benchmark's tracer binds must exist in the package.

bench/tracer.py wraps each (module, function) of its TARGETS with getattr
when a traced run starts, and bench/test_bench.py expects some re-exported
bindings to be patched too. Those run outside this suite, so a rename or
deletion here would only show when the benchmark runs; this test reads
bench/tracer.py and checks the names against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"samattr.{module}"), name, None)


def test_tracer_targets_resolve():
    missing = [f"{m}.{n}" for m, n in _tracer_targets() if not callable(_resolve(m, n))]
    assert not missing


def test_reexports_are_the_traced_functions():
    # The tracer patches a binding only when it is the very object it wraps.
    for module, name, home in [
        ("oracle", "compute_influence", "influence"),
        ("oracle", "sample_batches", "numcore"),
        ("influence", "worst_perturbation", "samtrain"),
    ]:
        assert _resolve(module, name) is _resolve(home, name) is not None, f"{module}.{name}"
