"""Outside-in span tracer for the samattr package.

The package carries no counters of its own, so the benchmark measures it
from outside: every binding of each traced function object, in every
loaded ``samattr.*`` module, is replaced by a wrapper that records a span
(name, start, end, parent span, job id) in memory. ``experiments`` imports
``train_sam`` and the estimators by name, ``oracle`` imports
``sample_batches`` and ``compute_influence`` by name, and so on, so patching
only the defining module would miss those calls.

Spans are kept in flat arrays while the run lasts, written once when it
ends, and reduced to per-layer metrics (calls, rows, busy and self time,
bytes, solver operator calls and residuals) by :meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the tracer, outermost layer first.
TARGETS = (
    ("cli", "main"),
    ("experiments", "setup"),
    ("experiments", "score_all"),
    ("datasets", "ingest"),
    ("samtrain", "train_sam"),
    ("samtrain", "worst_perturbation"),
    ("samtrain", "write_trajectory"),
    ("numcore", "sample_batches"),
    ("model", "subset_loss_grad"),
    ("model", "hvp"),
    ("influence", "compute_influence"),
    ("influence", "sam_if_fast"),
    ("influence", "sam_hif"),
    ("influence", "sam_gif"),
    ("influence", "perturbed_params"),
    ("influence", "eps_jacobian_vec"),
    ("influence", "neumann_ihvp"),
    ("oracle", "calibrate_estimator"),
    ("oracle", "loo_retrain"),
    ("oracle", "loo_schedule"),
    ("report", "emit_report"),
)

# A solve counts as converged when ||(A + damp*I) v - g|| / ||g|| is at or
# below this. The solver stops on an absolute step (L1 norm 1e-9), so on
# the convex workload solves for points with small gradients end with
# relative residuals up to ~2e-4 while their scores still match a dense
# solve to 1e-6 of the largest score; solves that hit the iteration cap on
# an indefinite operator sit at 1e0 and above.
RESIDUAL_TOL = 1e-3

# Spans of this name are the tracer's own work (the residual check). They
# are not a layer: their time is removed from every enclosing span.
OWN_SPAN = "bench.residual_check"

_NO_PARENT = -1
PACKAGE = "samattr"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps the package's public functions and records spans.

    Use as a context manager around the traced part of a run; the
    original bindings are restored on exit, so code run outside the
    context is untraced. ``job`` tags the spans opened while it is set.
    """

    def __init__(self):
        self.job = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._job = array("l")
        self._excluded = array("d")  # time of own spans nested inside
        self._rows = array("l")  # index-set length of model calls, else -1
        self.extra: dict[int, dict] = {}  # bytes, operator_calls, residual
        self._stack: list[int] = []
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        """Every ``module.attribute`` the tracer replaced."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patched)

    # -- span recording -----------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        sid = len(self._name)
        self._name.append(nid)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self._job.append(self.job)
        self._excluded.append(0.0)
        self._rows.append(-1)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_hook_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(sid, fn, args, kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _note(self, sid: int, **values) -> None:
        self.extra.setdefault(sid, {}).update(values)

    def _own_work(self, fn, *args):
        """Run benchmark-side work untraced, as a span whose time every
        enclosing span excludes."""
        sid = self._open(OWN_SPAN)
        self._paused = True
        try:
            return fn(*args)
        finally:
            self._paused = False
            self._close(sid)
            spent = self._end[sid] - self._start[sid]
            for open_sid in self._stack:
                self._excluded[open_sid] += spent

    # -- per-function hooks -------------------------------------------

    def _hook_subset_loss_grad(self, sid, fn, args, kwargs):
        self._rows[sid] = int(np.size(_arg(args, kwargs, 3, "indices")))
        return fn(*args, **kwargs)

    _hook_hvp = _hook_subset_loss_grad

    def _hook_neumann_ihvp(self, sid, fn, args, kwargs):
        apply_A = _arg(args, kwargs, 0, "apply_A")
        g = np.asarray(_arg(args, kwargs, 1, "g"), dtype=np.float64)
        cfg = _arg(args, kwargs, 2, "cfg")
        count = [0]

        def counted(v):
            count[0] += 1
            return apply_A(v)

        try:
            v = fn(counted, g, cfg)
        finally:
            self._note(sid, operator_calls=count[0])
        gnorm = float(np.linalg.norm(g))

        def residual():
            r = apply_A(v) + cfg.damp * v - g
            return float(np.linalg.norm(r)) / gnorm if gnorm > 0.0 else 0.0

        self._note(sid, residual=self._own_work(residual))
        return v

    def _hook_write_trajectory(self, sid, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self._note(sid, bytes=os.path.getsize(_arg(args, kwargs, 1, "path")))
        return out

    def _hook_emit_report(self, sid, fn, args, kwargs):
        paths = fn(*args, **kwargs)
        self._note(sid, bytes=sum(os.path.getsize(p) for p in paths))
        return paths

    # -- reduction ----------------------------------------------------

    def span_count(self) -> int:
        return len(self._name)

    def summary(self, job_ids) -> dict[str, float]:
        """Per-layer metrics over the spans of the given jobs.

        busy time is a span's duration less the tracer's own work inside
        it; self time is busy time less the busy time of its children.
        """
        names = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        rows = np.array(self._rows, dtype=np.int64)
        busy = np.array(self._end) - np.array(self._start) - np.array(self._excluded)
        child = (parent != _NO_PARENT) & (names != self._name_ids.get(OWN_SPAN, -1))
        child_busy = np.zeros(busy.size)
        np.add.at(child_busy, parent[child], busy[child])
        selected = np.isin(np.array(self._job, dtype=np.int64), list(job_ids))
        out: dict[str, float] = {}
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            sids = np.nonzero(selected & (names == self._name_ids.get(name, -1)))[0]
            out[f"{name}.calls"] = int(sids.size)
            out[f"{name}.busy_s"] = float(busy[sids].sum())
            out[f"{name}.self_s"] = float((busy[sids] - child_busy[sids]).sum())
            if fn_name in ("subset_loss_grad", "hvp"):
                out[f"{name}.rows"] = int(rows[sids].sum())
            extras = [self.extra[s] for s in sids.tolist() if s in self.extra]
            if fn_name in ("write_trajectory", "emit_report"):
                out[f"{name}.bytes"] = sum(e["bytes"] for e in extras)
            if fn_name == "neumann_ihvp":
                # A solve that raised returned no v and counts as unconverged.
                # With no solves the ratio is vacuously 1 and the max 0.
                residuals = [e["residual"] for e in extras if "residual" in e]
                out[f"{name}.operator_calls"] = sum(e["operator_calls"] for e in extras)
                out[f"{name}.converged_ratio"] = (
                    sum(r <= RESIDUAL_TOL for r in residuals) / sids.size if sids.size else 1.0
                )
                out[f"{name}.residual_max"] = max(residuals, default=0.0)
        return out

    def write(self, path: str, job_labels: dict[int, str]) -> None:
        """All spans as tab-separated lines:
        id, name, start_s, end_s, parent_id, job, extra key=value pairs."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tjob\textra\n")
            for sid in range(len(self._name)):
                extra = ",".join(f"{k}={v!r}" for k, v in self.extra.get(sid, {}).items())
                f.write(
                    f"{sid}\t{self._names[self._name[sid]]}\t{self._start[sid]!r}\t"
                    f"{self._end[sid]!r}\t{self._parent[sid]}\t"
                    f"{job_labels.get(self._job[sid], self._job[sid])}\t{extra}\n"
                )
