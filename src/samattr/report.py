"""Machine-readable experiment reports and plot-data emission.

A report is one experiment under one config: its id and config digest,
and a list of runs, each one named curve. The report file holds one
tab-separated key=value record per run and round-trips exactly (floats
are written with repr). Each curve additionally gets a two-column
tab-separated plot-data file; those contain only x/y values, so reruns
with the same seed reproduce them byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import FormatError


@dataclass
class RunRecord:
    metric: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise FormatError("run record x/y length mismatch")


@dataclass
class Report:
    """The runs of one experiment under one config; every record of its
    file carries the experiment id and the config digest (hex)."""

    experiment_id: str
    config_digest: str
    runs: list[RunRecord] = field(default_factory=list)

    def add(self, metric, x, y, wall_times=()):
        self.runs.append(
            RunRecord(
                metric=metric,
                x=[float(v) for v in x],
                y=[float(v) for v in y],
                wall_times=[float(v) for v in wall_times],
            )
        )


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _parse_floats(text: str) -> list[float]:
    if text == "":
        return []
    return [float(v) for v in text.split(",")]


def emit_report(report: Report, out_dir: str) -> list[str]:
    """Write the report file plus one plot-data file per run; returns the
    written paths. File names embed the experiment id and config digest."""
    os.makedirs(out_dir, exist_ok=True)
    if not report.runs:
        raise FormatError("refusing to emit an empty report")
    stem = f"{report.experiment_id}_{report.config_digest[:8]}"
    head = [f"experiment={report.experiment_id}", f"digest={report.config_digest}"]
    paths = []
    report_path = os.path.join(out_dir, f"{stem}.report")
    with open(report_path, "w", encoding="utf-8") as f:
        for run in report.runs:
            fields = head + [
                f"metric={run.metric}",
                f"x={_fmt_floats(run.x)}",
                f"y={_fmt_floats(run.y)}",
                f"wall={_fmt_floats(run.wall_times)}",
            ]
            f.write("\t".join(fields) + "\n")
    paths.append(report_path)
    for run in report.runs:
        plot_path = os.path.join(out_dir, f"{stem}_{run.metric}.tsv")
        with open(plot_path, "w", encoding="utf-8") as f:
            for xv, yv in zip(run.x, run.y):
                f.write(f"{xv!r}\t{yv!r}\n")
        paths.append(plot_path)
    return paths


def parse_report(path: str) -> Report:
    """Read a report file; every record must name the first record's
    experiment and digest, and the file must hold at least one."""
    report = None
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            record: dict[str, str] = {}
            for cell in line.split("\t"):
                if "=" not in cell:
                    raise FormatError(f"{path}:{line_no}: malformed cell {cell!r}")
                key, value = cell.split("=", 1)
                record[key] = value
            try:
                ident = (record["experiment"], record["digest"])
                if report is None:
                    report = Report(*ident)
                elif ident != (report.experiment_id, report.config_digest):
                    raise FormatError(
                        f"{path}:{line_no}: experiment or digest differs from the first record's"
                    )
                report.add(record["metric"], _parse_floats(record["x"]),
                           _parse_floats(record["y"]), _parse_floats(record["wall"]))
            except KeyError as exc:
                raise FormatError(f"{path}:{line_no}: missing field {exc}") from None
    if report is None:
        raise FormatError(f"{path}: no records")
    return report
