"""Time one CLI set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG

Imports ``samattr.cli`` from SRC_DIR, parses CONFIG and runs
``experiments.setup`` on it (dataset ingest and model spec), which is what
every CLI call pays before its first job. Prints one JSON object with the
set-up time in seconds, as measured and scaled to the reference host
speed by a plain-Python host speed sampler (hostprobe.py). A fresh
process is the only way to time the import again: a second import in the
same process is served from the module cache.
"""

import json
import sys

from hostprobe import setup_sampler


def setup(src: str, config: str) -> None:
    sys.path.insert(0, src)
    import samattr.cli  # noqa: F401
    from samattr import experiments

    experiments.setup(experiments.load_config(config))


if __name__ == "__main__":
    _, wall, scaled = setup_sampler().timed(lambda: setup(sys.argv[1], sys.argv[2]))
    print(json.dumps({"setup_s": wall, "setup_scaled_s": scaled}))
