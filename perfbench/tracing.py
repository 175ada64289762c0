"""Spans around fanolap's public functions, recorded from outside the package.

``instrument(recorder)`` replaces each traced function, in every fanolap
module that holds a reference to it, by a wrapper that records a span:
name ``<module>.<function>``, start, end, parent span, the operation
(root span) it belongs to, and size attributes such as grid points or
fit iterations.  Spans are kept in memory; the harness reduces them to
per-layer metrics at the end of the run.

Only calls made inside an operation span are recorded, so the correctness
gate, which calls the library between operations, leaves no spans.

Known blind spot: ``qscan`` formats its CSV inline in ``cli._cmd_qscan``,
which calls no traced formatter, so that formatting lands in
``cli.run_self_s``.
"""

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    t0: int
    t1: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self):
        return self.t1 - self.t0


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        span = Span(sid, parent, root, name, 0)
        self.spans.append(span)
        self._stack.append(sid)
        span.t0 = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, name):
        """Root span of one benchmark operation."""
        span = self._open("op." + name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, sizer):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = sizer(args, result)
            return result
        return traced


def _n(i):
    return lambda a, r: {"n": int(np.size(a[i]))}


def _n_bytes(i):
    def sizer(a, r):
        return {"n": int(np.size(a[i])),
                "bytes": int(np.asarray(a[i]).nbytes + np.asarray(r).nbytes)}
    return sizer


def _none(a, r):
    return {}


# (module, function, sizer(args, result) -> span attributes)
TRACED = (
    ("cli", "run", _none),
    ("model", "load_model", _none),
    ("smatrix", "s_unitary_product",
     lambda a, r: dict(_n_bytes(1)(a, r), nres=len(a[0].resonances))),
    ("smatrix", "s_pole", lambda a, r: dict(_n_bytes(1)(a, r), kind=a[2].value)),
    ("smatrix", "s_double_pole", _n_bytes(3)),
    ("smatrix", "cross_section", _n_bytes(0)),
    ("smatrix", "cross_section_noninteracting", _n_bytes(1)),
    ("fano", "fano_q_dynamic", _n(2)),
    ("fano", "fano_cross_section_dynamic", _n(2)),
    ("fano", "fano_cross_section_static", _n(2)),
    ("fano", "fano_static_params", _none),
    ("scan", "trace", lambda a, r: {"n": a[1].n_points}),
    ("scan", "contour", lambda a, r: {"cells": int(r.sigma.size)}),
    ("scan", "compare_representations", lambda a, r: {"n": a[1].n_points}),
    ("scan", "figure1", _none),
    ("scan", "figure2", _none),
    ("scan", "format_trace_csv", lambda a, r: {"rows": int(a[0].energies.size), "bytes": len(r)}),
    ("scan", "format_contour_csv", lambda a, r: {"cells": int(a[0].sigma.size), "bytes": len(r)}),
    ("fit", "read_trace_csv", lambda a, r: {"rows": int(r.energies.size)}),
    ("fit", "initial_guess", lambda a, r: {"n": int(a[0].energies.size)}),
    ("fit", "fit_fano", lambda a, r: {"n": int(a[0].energies.size),
                                      "iterations": r.iterations, "converged": r.converged}),
    ("fit", "format_fit_json", _none),
)


@contextmanager
def instrument(recorder):
    """Patch every traced function in all loaded fanolap modules."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "fanolap" or name.startswith("fanolap.")]
    saved = []
    try:
        for modname, fname, sizer in TRACED:
            original = getattr(sys.modules["fanolap." + modname], fname)
            wrapper = recorder.wrap("%s.%s" % (modname, fname), original, sizer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield recorder
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ------------------------------------------------------------ layer metrics

# name -> unit, for every per-layer metric the traced run prints
LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.startup_cpu_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "B",
    "model.load_model_s": "s",
    "smatrix.s_unitary_product.n2.ns_per_pt": "ns/pt",
    "smatrix.s_unitary_product.n12.ns_per_pt": "ns/pt",
    "smatrix.s_pole.static.ns_per_pt": "ns/pt",
    "smatrix.s_pole.dynamic.ns_per_pt": "ns/pt",
    "smatrix.s_double_pole.ns_per_pt": "ns/pt",
    "smatrix.cross_section.ns_per_pt": "ns/pt",
    "smatrix.cross_section_noninteracting.ns_per_pt": "ns/pt",
    "smatrix.bytes_computed_per_pt": "B/pt",
    "fano.fano_q_dynamic.ns_per_pt": "ns/pt",
    "fano.fano_cross_section_dynamic.ns_per_pt": "ns/pt",
    "fano.fano_cross_section_static.ns_per_pt": "ns/pt",
    "fano.fano_static_params_us": "us",
    "scan.contour.ns_per_cell": "ns/cell",
    "scan.compare_representations_s": "s",
    "scan.figure1_s": "s",
    "scan.figure2_s": "s",
    "scan.format_trace_csv.ns_per_row": "ns/row",
    "scan.format_contour_csv.ns_per_cell": "ns/cell",
    "scan.format.bytes": "B",
    "fit.read_trace_csv.ns_per_row": "ns/row",
    "fit.initial_guess_s": "s",
    "fit.fit_fano_s": "s",
    "fit.s_per_iteration.small": "s",
    "fit.s_per_iteration.medium": "s",
    "fit.s_per_iteration.large": "s",
    "fit.format_fit_json_s": "s",
    **{"fit.iterations.%s.%s" % (family, size): "count"
       for family in ("noisy_fano", "two_res_misfit", "narrow_on_broad")
       for size in ("small", "medium", "large")},
    "fit.converged_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def self_ns(spans):
    """Span duration minus the time its direct children cover."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.ns
    return {s.sid: s.ns - child[s.sid] for s in spans}


def layer_metrics(spans, n_passes, counts, fit_sizes):
    """Per-layer metrics available from these spans and the operations'
    exact counts.

    ``_s`` metrics are busy seconds per pass, ``ns_per_*`` divide total
    span time by the work it covered.  Metrics the spans cannot give are
    left out.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_ns(spans)
    roots = {s.sid: s.name[3:] for s in spans if s.name.startswith("op.")}
    out = {}

    def put(name, value):
        if value is not None:
            out[name] = value

    def rate(fname, key, keep=lambda s: True):
        chosen = [s for s in by[fname] if keep(s)]
        work = sum(s.attrs.get(key, 0) for s in chosen)
        return sum(s.ns for s in chosen) / work if work else None

    def busy(fname, self_only=False):
        chosen = by[fname]
        if not chosen:
            return None
        return sum(own[s.sid] if self_only else s.ns for s in chosen) * 1e-9 / n_passes

    put("cli.run_self_s", busy("cli.run", self_only=True))
    written = [c["bytes_written"] for c in counts.values() if "bytes_written" in c]
    if written:
        out["cli.bytes_written"] = sum(written)
    put("model.load_model_s", busy("model.load_model"))
    for nres in (2, 12):
        put("smatrix.s_unitary_product.n%d.ns_per_pt" % nres,
            rate("smatrix.s_unitary_product", "n", lambda s: s.attrs.get("nres") == nres))
    for kind in ("static", "dynamic"):
        put("smatrix.s_pole.%s.ns_per_pt" % kind,
            rate("smatrix.s_pole", "n", lambda s: s.attrs.get("kind") == "poles-" + kind))
    for fname in ("smatrix.s_double_pole", "smatrix.cross_section",
                  "smatrix.cross_section_noninteracting", "fano.fano_q_dynamic",
                  "fano.fano_cross_section_dynamic", "fano.fano_cross_section_static"):
        put(fname + ".ns_per_pt", rate(fname, "n"))
    sm = [s for s in spans if s.name.startswith("smatrix.")]
    pts = sum(s.attrs.get("n", 0) for s in sm)
    if pts:
        out["smatrix.bytes_computed_per_pt"] = sum(s.attrs.get("bytes", 0) for s in sm) / pts
    if by["fano.fano_static_params"]:
        out["fano.fano_static_params_us"] = statistics.median(
            s.ns for s in by["fano.fano_static_params"]) * 1e-3
    put("scan.contour.ns_per_cell", rate("scan.contour", "cells"))
    for fname in ("compare_representations", "figure1", "figure2"):
        put("scan.%s_s" % fname, busy("scan." + fname))
    put("scan.format_trace_csv.ns_per_row", rate("scan.format_trace_csv", "rows"))
    put("scan.format_contour_csv.ns_per_cell", rate("scan.format_contour_csv", "cells"))
    fmt = by["scan.format_trace_csv"] + by["scan.format_contour_csv"]
    if fmt:
        out["scan.format.bytes"] = sum(s.attrs.get("bytes", 0) for s in fmt) / n_passes
    put("fit.read_trace_csv.ns_per_row", rate("fit.read_trace_csv", "rows"))
    put("fit.initial_guess_s", busy("fit.initial_guess"))
    put("fit.fit_fano_s", busy("fit.fit_fano", self_only=True))
    put("fit.format_fit_json_s", busy("fit.format_fit_json"))
    fits = [s for s in by["fit.fit_fano"] if "iterations" in s.attrs]
    for label, n in fit_sizes.items():
        sized = [s for s in fits if s.attrs.get("n") == n]
        iters = sum(s.attrs["iterations"] for s in sized)
        if iters:
            out["fit.s_per_iteration." + label] = sum(own[s.sid] for s in sized) * 1e-9 / iters
    for s in fits:
        case = roots.get(s.root)
        if case and "fit.iterations." + case in LAYER_UNITS:
            out["fit.iterations." + case] = s.attrs["iterations"]
    if fits:
        out["fit.converged_ratio"] = sum(s.attrs["converged"] for s in fits) / len(fits)
    return out


def module_self_shares(spans):
    """Self time per module over all recorded spans, ops included as 'bench'."""
    own = self_ns(spans)
    per = defaultdict(int)
    for s in spans:
        per["bench" if s.name.startswith("op.") else s.name.split(".")[0]] += own[s.sid]
    total = sum(per.values()) or 1
    return {k: v / total for k, v in sorted(per.items(), key=lambda kv: -kv[1])}
