"""Per-layer tracing from outside the program.

The tracer replaces module attributes at the sites the program calls them
from (for example ``soapcert.cli.certify`` and
``soapcert.certify.ambient_cone_area``) with wrappers that record a span:
name, start, end, parent span and operation id.  Operations are the CLI
commands; each carries its command kind, graph, model and sample count, so
per-model breakdowns can be read from the span file.  ``SpaceForm``
primitives are counted, not spanned: they run millions of times.  Nothing
under ``src/`` is edited.

Modules are reached through ``importlib.import_module``: ``import
soapcert.certify as m`` would give the *function*, because the package
re-exports ``certify`` under the submodule's name.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# (span name, [(module, attribute), ...]): every site the program calls the
# layer's public function from.
SPANS = [
    ("graph.load", [("soapcert.cli", "load_graph_file")]),
    ("graph.validate", [("soapcert.graph", "validate_graph")]),
    ("curvature.tc", [("soapcert.cli", "cone_total_curvature"),
                      ("soapcert.certify", "cone_total_curvature")]),
    ("curvature.edge", [("soapcert.curvature", "edge_total_curvature")]),
    ("curvature.vertex", [("soapcert.curvature", "vertex_tc")]),
    ("cone.develop", [("soapcert.cone", "develop_cone")]),
    ("cone.density", [("soapcert.cone", "ambient_cone_density")]),
    ("cone.area", [("soapcert.cone", "ambient_cone_area"),
                   ("soapcert.certify", "ambient_cone_area")]),
    ("cone.gb_residual", [("soapcert.cone", "gauss_bonnet_residual")]),
    ("certify.certify", [("soapcert.cli", "certify")]),
    ("certify.hull", [("soapcert.cli", "hull_approx"),
                      ("soapcert.certify", "hull_approx")]),
    ("certify.karcher", [("soapcert.certify", "karcher_center")]),
    ("certify.search", [("soapcert.certify", "extremal_cone_area")]),
    ("certify.refine", [("scipy.optimize", "minimize")]),
    ("certify.density_bound", [("soapcert.cli", "density_bound")]),
]

COUNTED = ("project_point", "dist", "exp", "log")

# Per-layer metrics: name -> unit, and whether a higher value is better.
METRICS = {
    "cone.area_calls": ("count", "lower"),
    "cone.area_per_call_s": ("s", "lower"),
    "cone.area_incl_s": ("s", "lower"),
    "certify.search_incl_s": ("s", "lower"),
    "certify.search_self_s": ("s", "lower"),
    "certify.grid_evals": ("count", "lower"),
    "certify.refine_evals": ("count", "lower"),
    "certify.refine_s": ("s", "lower"),
    "certify.refine_accept_frac": ("ratio", "higher"),
    "certify.hull_incl_s": ("s", "lower"),
    "certify.karcher_s": ("s", "lower"),
    "certify.karcher_calls": ("count", "lower"),
    "certify.density_bound_calls": ("count", "lower"),
    "graph.load_incl_s": ("s", "lower"),
    "graph.validate_incl_s": ("s", "lower"),
    "graph.samples_loaded": ("count", "higher"),
    "spaceform.project_point.calls": ("count", "lower"),
    "spaceform.dist.calls": ("count", "lower"),
    "spaceform.exp.calls": ("count", "lower"),
    "spaceform.log.calls": ("count", "lower"),
    "spaceform.rows_per_call": ("rows", "higher"),
    "curvature.tc_incl_s": ("s", "lower"),
    "curvature.edge_s": ("s", "lower"),
    "curvature.vertex_s": ("s", "lower"),
    "curvature.vertex_calls": ("count", "lower"),
    "cone.develop_s": ("s", "lower"),
    "cone.density_s": ("s", "lower"),
    "cone.gb_residual_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "curvature.tc_signed_err": ("rad", "higher"),
    "cone.area_signed_err.hyperbolic": ("area", "lower"),
    "cone.area_signed_err.spherical": ("area", "higher"),
    "cone.gb_residual_max": ("rad", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span fields.
NAME, START, END, PARENT, OP, VALUE = range(6)


def _rows(args) -> int:
    """Points in the call: the largest leading size of its array arguments."""
    rows = 1
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim > 1:
            rows = max(rows, a.size // a.shape[-1])
    return rows


def _summary(name: str, result):
    """The part of a return value the metrics need."""
    if name in ("cone.area", "cone.gb_residual"):
        return float(result)
    if name == "curvature.tc":
        return float(result.total)
    if name == "graph.load":
        return int(sum(len(e.samples) for e in result.edges))
    if name == "certify.search":
        return float(result.value)
    if name == "certify.refine":
        return int(result.nfev)
    return None


class Tracer:
    """Keeps spans and counters in memory; ``install`` wraps the program's
    call sites and ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []
        self.ops = []
        self.counts = defaultdict(int)
        self.pass_counts = []
        self._stack = []
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, len(self.ops) - 1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            span[VALUE] = _summary(name, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            counts["rows"] += _rows(args)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for name, sites in SPANS:
            for module, attr in sites:
                owner = importlib.import_module(module)
                self._replace(owner, attr,
                              self._span_wrapper(name, getattr(owner, attr)))
        space_cls = importlib.import_module("soapcert.spaceform").SpaceForm
        for attr in COUNTED:
            self._replace(space_cls, attr,
                          self._count_wrapper(attr, getattr(space_cls, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- operations ---------------------------------------------------------

    def begin_pass(self):
        self.counts.clear()

    def end_pass(self):
        self.pass_counts.append(dict(self.counts))

    def call(self, op: dict, fn, *args):
        """Run one operation under a root span named ``cli.run``."""
        self.ops.append(dict(op, pass_index=len(self.pass_counts)))
        return self._span_wrapper("cli.run", fn)(*args)

    def write(self, path):
        names = ("name", "start", "end", "parent", "op", "value")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_fields": names, "ops": self.ops,
                       "spans": self.spans,
                       "spaceform_counts_per_pass": self.pass_counts}, fh)

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, untraced_pass_s: list[float],
                      traced_pass_s: list[float]) -> dict:
        """Every metric in METRICS, each the median over the traced passes."""
        child = defaultdict(float)  # time covered by each span's children
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        per_pass = [self._pass_metrics(p, child)
                    for p in range(len(self.pass_counts))]
        out = {name: statistics.median(m[name] for m in per_pass)
               for name in METRICS if name != "trace.overhead_ratio"}
        out["trace.overhead_ratio"] = (statistics.median(traced_pass_s)
                                       / statistics.median(untraced_pass_s))
        return out

    def _pass_metrics(self, index: int, child: dict) -> dict:
        spans = self.spans
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        grid_evals = refine_evals = accepted = searches = samples = 0
        tc_err = []
        area_err = {"hyperbolic": [], "spherical": []}
        gb_max = 0.0
        for i, s in enumerate(spans):
            op = self.ops[s[OP]]
            if op["pass_index"] != index:
                continue
            name, value = s[NAME], s[VALUE]
            dur = s[END] - s[START]
            incl[name] += dur
            self_s[name] += dur - child[i]
            calls[name] += 1
            if value is None:
                continue
            if name == "cone.area" and spans[s[PARENT]][NAME] == "certify.search":
                grid_evals += 1
            if name == "graph.load":
                samples += value
            elif name == "certify.refine":
                refine_evals += value
            elif name == "certify.search":
                # the refinement was accepted when the returned area is not
                # one of the grid sweep's values
                searches += 1
                grid = [t[VALUE] for t in spans[i + 1:]
                        if t[PARENT] == i and t[NAME] == "cone.area"]
                accepted += value not in grid
            elif name == "curvature.tc" and "tc_exact" in op:
                tc_err.append(value - op["tc_exact"])
            elif name == "cone.area" and "area_exact" in op \
                    and op["model"] in area_err:
                area_err[op["model"]].append(value - op["area_exact"])
            elif name == "cone.gb_residual":
                gb_max = max(gb_max, value)
        counts = self.pass_counts[index]
        n_space = sum(counts.get(a, 0) for a in COUNTED)

        def worst(errs):
            return max(errs, key=abs) if errs else 0.0

        n_area = calls["cone.area"]
        return {
            "cone.area_calls": n_area,
            "cone.area_per_call_s": incl["cone.area"] / n_area if n_area else 0.0,
            "cone.area_incl_s": incl["cone.area"],
            "certify.search_incl_s": incl["certify.search"],
            "certify.search_self_s": self_s["certify.search"],
            "certify.grid_evals": grid_evals,
            "certify.refine_evals": refine_evals,
            "certify.refine_s": self_s["certify.refine"],
            "certify.refine_accept_frac": accepted / searches if searches else 0.0,
            "certify.hull_incl_s": incl["certify.hull"],
            "certify.karcher_s": self_s["certify.karcher"],
            "certify.karcher_calls": calls["certify.karcher"],
            "certify.density_bound_calls": calls["certify.density_bound"],
            "graph.load_incl_s": incl["graph.load"],
            "graph.validate_incl_s": incl["graph.validate"],
            "graph.samples_loaded": samples,
            "spaceform.project_point.calls": counts.get("project_point", 0),
            "spaceform.dist.calls": counts.get("dist", 0),
            "spaceform.exp.calls": counts.get("exp", 0),
            "spaceform.log.calls": counts.get("log", 0),
            "spaceform.rows_per_call": counts.get("rows", 0) / n_space if n_space else 0.0,
            "curvature.tc_incl_s": incl["curvature.tc"],
            "curvature.edge_s": self_s["curvature.edge"],
            "curvature.vertex_s": self_s["curvature.vertex"],
            "curvature.vertex_calls": calls["curvature.vertex"],
            "cone.develop_s": self_s["cone.develop"],
            "cone.density_s": self_s["cone.density"],
            "cone.gb_residual_s": self_s["cone.gb_residual"],
            "cli.self_s": self_s["cli.run"],
            "curvature.tc_signed_err": min(tc_err) if tc_err else 0.0,
            "cone.area_signed_err.hyperbolic": worst(area_err["hyperbolic"]),
            "cone.area_signed_err.spherical": worst(area_err["spherical"]),
            "cone.gb_residual_max": gb_max,
        }
