"""Command-line entry point.

Every subcommand reads a flat key=value config file, runs one batch
experiment, and writes a report plus plot-data files to the output
directory. Exit codes: 0 success, 2 config error, 3 numerical
divergence, 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, DivergenceError, FormatError, InvalidInputError
from .experiments import (
    cmd_attribute,
    cmd_calibrate,
    cmd_detect_noise,
    cmd_edit,
    cmd_train,
    cmd_trace,
    cmd_valuate,
    load_config,
)
from .influence import ESTIMATORS
from .report import emit_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

_COMMANDS = {
    "train": cmd_train,
    "attribute": cmd_attribute,
    "valuate": cmd_valuate,
    "detect-noise": cmd_detect_noise,
    "trace": cmd_trace,
    "edit": cmd_edit,
    "calibrate": cmd_calibrate,
}


@functools.cache  # one per process: a parser is a reference cycle, freed only by gc
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samattr",
        description="SAM training and influence-based data attribution experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.strip().splitlines()[0])
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument(
            "--estimator",
            choices=[e.replace("_", "-") for e in ESTIMATORS],
            default=None,
            help="influence estimator (overrides config)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "out": args.out,
        "seed": args.seed,
        "estimator": args.estimator,
    }
    try:
        cfg = load_config(args.config, overrides)
        report = _COMMANDS[args.command](cfg)
        paths = emit_report(report, cfg.out)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
