"""Names and arguments the benchmark's tracer binds must exist in the package.

bench/tracer.py wraps each (module, function) of its TARGETS with getattr
when a traced run starts, its per-function hooks read some arguments by
position or name, and bench/test_bench.py expects some re-exported
bindings to be patched too. Those run outside this suite, so a rename,
deletion or signature change here would only show when the benchmark
runs; this test reads bench/tracer.py and checks it against the package.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets():
    return _tracer().TARGETS


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


def test_hook_argument_positions_match_signatures():
    # A hook reads argument `name` as args[pos] when passed by position,
    # so pos must be name's place in the wrapped function's signature.
    tracer = _tracer()
    checked = []
    for module, name in tracer.TARGETS:
        hook = getattr(tracer.Tracer, f"_hook_{name}", None)
        if hook is None:
            continue
        params = list(inspect.signature(_resolve(module, name)).parameters)
        reads = re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"\)', inspect.getsource(hook))
        for pos, arg in reads:
            assert params[int(pos)] == arg, f"{module}.{name}: argument {pos} is not {arg!r}"
            checked.append(f"{name}.{arg}")
    assert set(checked) >= {
        "write_trajectory.path", "subset_loss_grad.indices", "hvp.indices",
        "neumann_ihvp.apply_A", "neumann_ihvp.g", "neumann_ihvp.cfg",
    }
