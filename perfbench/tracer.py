"""Span tracer that wraps certsurf's public functions from outside the package.

Each wrapped call becomes a span (name, start, end, parent span, job id).
Calls, self time (a span's duration minus the time its wrapped children
cover), caller->callee edge counts and a few outcome counts are
aggregated online, so the per-layer numbers are exact however many calls
a job makes.  Spans themselves are kept in preallocated in-memory arrays
up to a cap and written out once, at the end of the run; calls past the
cap still count in the aggregates and are reported as dropped spans.

certsurf modules import each other's functions with ``from .x import f``,
so a wrapper is installed under every certsurf module attribute that
holds the original function, not only in its home module.  Methods are
wrapped on the class that defines them.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

SPAN_CAP = 200_000


def _count_if(label, predicate):
    def outcome(tracer, nid, args, result):
        if predicate(result):
            tracer.events[(nid, label)] = tracer.events.get((nid, label), 0) + 1

    return outcome


def _add(label, amount):
    def outcome(tracer, nid, args, result):
        tracer.events[(nid, label)] = tracer.events.get((nid, label), 0) + amount(
            args, result
        )

    return outcome


# (span name, module, owner class or None, attribute, outcome hook)
TARGETS = (
    ("intervals.matmul", "certsurf.intervals", "IntervalMatrix", "matmul", None),
    ("intervals.matvec", "certsurf.intervals", "IntervalMatrix", "matvec", None),
    ("surface.grow", "certsurf.surface", None, "certified_surface_approximation", None),
    ("surface.trim", "certsurf.surface", None, "post_process_trim", None),
    ("surface.add", "certsurf.surface", "SurfaceRun", "add", None),
    (
        "surface.coverage_update",
        "certsurf.surface",
        None,
        "coverage_update",
        _count_if("hit", lambda removed: removed > 0.0),
    ),
    ("frames.obox_disjoint", "certsurf.frames", None, "obox_disjoint", None),
    ("frames.obox_contains", "certsurf.frames", None, "obox_contains", None),
    ("frames.tangent_align", "certsurf.frames", None, "tangent_align", None),
    ("patching.certify_box", "certsurf.patching", None, "certify_box", None),
    ("patching.newton_polish", "certsurf.patching", None, "newton_polish", None),
    (
        "patching.component_test",
        "certsurf.patching",
        None,
        "component_test",
        _count_if("false", lambda res: res[0] is False),
    ),
    (
        "patching.inclusion_test",
        "certsurf.patching",
        None,
        "inclusion_test",
        _count_if("true", bool),
    ),
    (
        "graph_cover.cover_graph",
        "certsurf.graph_cover",
        None,
        "cover_graph",
        _add("cells", lambda args, cover: len(cover.cells)),
    ),
    ("graph_cover.isolate_fiber_roots", "certsurf.graph_cover", None, "isolate_fiber_roots", None),
    ("system.analytic.eval_box", "certsurf.system", "AnalyticSystem", "eval_box", None),
    ("system.analytic.jacobian_box", "certsurf.system", "AnalyticSystem", "jacobian_box", None),
    ("system.analytic.eval_point", "certsurf.system", "AnalyticSystem", "eval_point", None),
    ("system.analytic.jacobian_point", "certsurf.system", "AnalyticSystem", "jacobian_point", None),
    ("system.transformed.eval_box", "certsurf.system", "TransformedSystem", "eval_box", None),
    ("system.transformed.jacobian_box", "certsurf.system", "TransformedSystem", "jacobian_box", None),
    ("system.transformed.eval_point", "certsurf.system", "TransformedSystem", "eval_point", None),
    ("system.transformed.jacobian_point", "certsurf.system", "TransformedSystem", "jacobian_point", None),
    (
        "krawczyk.krawczyk_test",
        "certsurf.krawczyk",
        None,
        "krawczyk_test",
        _count_if("passed", lambda res: res.passed),
    ),
    ("krawczyk.refine_fiber_root", "certsurf.krawczyk", None, "refine_fiber_root", None),
    ("linalg.approx_inverse", "certsurf.linalg", None, "approx_inverse", None),
    (
        "exports.write",
        "certsurf.exports",
        None,
        "write_surface_jsonl",
        _add("bytes", lambda args, _: os.path.getsize(args[-1])),
    ),
    (
        "exports.write",
        "certsurf.exports",
        None,
        "write_graph_jsonl",
        _add("bytes", lambda args, _: os.path.getsize(args[-1])),
    ),
    (
        "exports.verify",
        "certsurf.exports",
        None,
        "verify_jsonl",
        _add("records", lambda args, report: report.checked),
    ),
)

JOB_SPAN = "bench.job"


class Tracer:
    """Online span aggregation plus a bounded in-memory span store."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.events: dict[tuple[int, str], float] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.stack: list[list] = []
        self.job = -1
        self.jobs = 0
        self.n_spans = 0
        self.cap = SPAN_CAP
        self.span_name = np.zeros(SPAN_CAP, dtype=np.int16)
        self.span_start = np.zeros(SPAN_CAP, dtype=np.float64)
        self.span_end = np.zeros(SPAN_CAP, dtype=np.float64)
        self.span_parent = np.zeros(SPAN_CAP, dtype=np.int32)
        self.span_job = np.zeros(SPAN_CAP, dtype=np.int32)
        self._installed: list[tuple[object, str, object]] = []
        self._job_nid = self.nid(JOB_SPAN)

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- span bookkeeping -------------------------------------------------

    def _open(self, nid: int) -> tuple[list, list | None]:
        stack = self.stack
        parent = stack[-1] if stack else None
        key = (parent[0] if parent is not None else -1, nid)
        self.edges[key] = self.edges.get(key, 0) + 1
        frame = [nid, 0.0, self.n_spans]
        self.n_spans += 1
        stack.append(frame)
        return frame, parent

    def _close(self, frame: list, parent, t0: float, t1: float) -> None:
        self.stack.pop()
        nid, child_s, idx = frame
        dur = t1 - t0
        self.self_s[nid] += dur - child_s
        self.calls[nid] += 1
        if parent is not None:
            parent[1] += dur
        if idx < self.cap:
            self.span_name[idx] = nid
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.span_parent[idx] = parent[2] if parent is not None else -1
            self.span_job[idx] = self.job

    def wrap(self, name: str, fn, outcome=None):
        nid = self.nid(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, t0, clock())
                key = (nid, "raised")
                tracer.events[key] = tracer.events.get(key, 0) + 1
                raise
            tracer._close(frame, parent, t0, clock())
            if outcome is not None:
                outcome(tracer, nid, args, result)
            return result

        return traced

    def job_span(self, job_id: int, fn, *args):
        """Run one job under a root span tagged with ``job_id``."""
        self.job = job_id
        self.jobs += 1
        frame, parent = self._open(self._job_nid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, parent, t0, time.perf_counter())

    # -- patching certsurf ------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every certsurf name that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "certsurf" or name.startswith("certsurf.")
        ]
        for name, module_name, owner_name, attr, outcome in TARGETS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self.wrap(name, original, outcome))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, outcome)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]]

    def event(self, name: str, label: str) -> float:
        return self.events.get((self._ids[name], label), 0)

    def edge(self, parent: str, child: str) -> int:
        return self.edges.get((self._ids[parent], self._ids[child]), 0)

    def calls_from_outside(self, prefix: str, names: tuple[str, ...]) -> int:
        """Calls of ``names`` whose caller is not itself a ``prefix`` span."""
        total = 0
        for (pnid, nid), n in self.edges.items():
            if self.names[nid] in names and not (
                pnid >= 0 and self.names[pnid].startswith(prefix)
            ):
                total += n
        return total

    def write(self, path) -> None:
        """Write the stored spans (and the name table) as an .npz file."""
        kept = min(self.n_spans, self.cap)
        np.savez(
            path,
            names=np.array(self.names),
            name=self.span_name[:kept],
            start=self.span_start[:kept],
            end=self.span_end[:kept],
            parent=self.span_parent[:kept],
            job=self.span_job[:kept],
            dropped=np.array(self.n_spans - kept),
        )


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_SYSTEM_POINT = {
    "eval_point": ("system.analytic.eval_point", "system.transformed.eval_point"),
    "jacobian_point": ("system.analytic.jacobian_point", "system.transformed.jacobian_point"),
}


def _calls(name):
    return (f"{name}.calls", "count", "lower", lambda t: t.count(name) / t.jobs)


def _self(name):
    return (f"{name}.self_s", "s", "lower", lambda t: t.self_time(name) / t.jobs)


def _event_ratio(metric, name, label, better):
    return (metric, "ratio", better, lambda t: _ratio(t.event(name, label), t.count(name)))


# (metric name, unit, better, value from a Tracer); counts and times are
# per traced job, ratios are taken over all traced jobs of the run
LAYER_METRICS = (
    _calls("intervals.matmul"),
    _self("intervals.matmul"),
    _calls("intervals.matvec"),
    _self("intervals.matvec"),
    _self("surface.grow"),
    _self("surface.trim"),
    _calls("surface.add"),
    _self("surface.add"),
    _calls("frames.obox_disjoint"),
    _self("frames.obox_disjoint"),
    _calls("surface.coverage_update"),
    _self("surface.coverage_update"),
    _event_ratio("surface.coverage_update.hit_ratio", "surface.coverage_update", "hit", "higher"),
    _calls("frames.tangent_align"),
    _self("frames.tangent_align"),
    _calls("frames.obox_contains"),
    _calls("patching.certify_box"),
    _self("patching.certify_box"),
    (
        "patching.certify_box.tests_per_call",
        "ratio",
        "lower",
        lambda t: _ratio(
            t.edge("patching.certify_box", "krawczyk.krawczyk_test"),
            t.count("patching.certify_box"),
        ),
    ),
    (
        "patching.certify_box.kept_ratio",
        "ratio",
        "higher",
        lambda t: _ratio(t.count("surface.add"), t.count("patching.certify_box")),
    ),
    _calls("patching.newton_polish"),
    _calls("patching.component_test"),
    _self("patching.component_test"),
    _event_ratio("patching.component_test.false_ratio", "patching.component_test", "false", "lower"),
    _calls("patching.inclusion_test"),
    _event_ratio("patching.inclusion_test.true_ratio", "patching.inclusion_test", "true", "higher"),
    _calls("graph_cover.cover_graph"),
    _self("graph_cover.cover_graph"),
    (
        "graph_cover.cover_graph.cells",
        "count",
        "lower",
        lambda t: t.event("graph_cover.cover_graph", "cells") / t.jobs,
    ),
    (
        "graph_cover.cover_graph.cells_per_test",
        "ratio",
        "higher",
        lambda t: _ratio(
            t.event("graph_cover.cover_graph", "cells"),
            t.edge("graph_cover.cover_graph", "krawczyk.krawczyk_test"),
        ),
    ),
    _calls("graph_cover.isolate_fiber_roots"),
    _calls("system.analytic.eval_box"),
    _self("system.analytic.eval_box"),
    _calls("system.analytic.jacobian_box"),
    _self("system.analytic.jacobian_box"),
    _self("system.transformed.eval_box"),
    _self("system.transformed.jacobian_box"),
    (
        "system.eval_point.calls",
        "count",
        "lower",
        lambda t: t.calls_from_outside("system.", _SYSTEM_POINT["eval_point"]) / t.jobs,
    ),
    (
        "system.jacobian_point.calls",
        "count",
        "lower",
        lambda t: t.calls_from_outside("system.", _SYSTEM_POINT["jacobian_point"]) / t.jobs,
    ),
    _calls("krawczyk.krawczyk_test"),
    _self("krawczyk.krawczyk_test"),
    _event_ratio("krawczyk.krawczyk_test.pass_ratio", "krawczyk.krawczyk_test", "passed", "higher"),
    _calls("krawczyk.refine_fiber_root"),
    _self("krawczyk.refine_fiber_root"),
    _event_ratio("krawczyk.refine_fiber_root.fail_ratio", "krawczyk.refine_fiber_root", "raised", "lower"),
    _calls("linalg.approx_inverse"),
    _self("linalg.approx_inverse"),
    _self("exports.write"),
    ("exports.write.bytes", "bytes", "lower", lambda t: t.event("exports.write", "bytes") / t.jobs),
    _self("exports.verify"),
    ("exports.verify.records", "count", "lower", lambda t: t.event("exports.verify", "records") / t.jobs),
    _self(JOB_SPAN),
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    return {name: (float(fn(tracer)), unit) for name, unit, _, fn in LAYER_METRICS}
