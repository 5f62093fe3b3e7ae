"""Span tracing from outside the package, by patching module bindings.

``from .geometry import minkowski_sum`` copies the function into the
importing module, so wrapping ``geometry.minkowski_sum`` alone would miss
the calls made from ``qdcore``.  A Tracer therefore replaces every binding
of a traced function across the ``qdcalc`` modules, and puts each one back
on ``uninstall``.  HiGHS and qhull are reached through the names
``linprog`` and ``ConvexHull`` in ``qdcalc.geometry``.

Spans are kept in memory as ``[name, start, end, parent, problem, note]``
and turned into per-layer metrics by ``layer_metrics``.  Spans are
appended at call time, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, note): the note reads sizes from the
# arguments and the result of a call.
_RULES = ("qd_add", "qd_scale", "qd_sup", "qd_inf", "qd_product", "qd_compose")
_CHECKS = ("check_unconstrained", "check_set_constrained",
           "check_inequality_constrained", "check_combined", "check_generalized")


def _out_gens(args, kwargs, result):
    return max(result.subd.num_generators, result.supd.num_generators)


def _sum_sizes(args, kwargs, result):
    return (args[0].num_generators * args[1].num_generators, result.num_generators)


def _prune_sizes(args, kwargs, result):
    return (args[0].shape[0], result.shape[0])


def _iterations(args, kwargs, result):
    return result.iterations


TARGETS = (
    [("qdcalc.cli", "load_problem", "cli.load_problem", None),
     ("qdcalc.cli", "_emit", "cli.emit", None),
     ("qdcalc.expr", "qd_at", "expr.qd_at", None),
     ("qdcalc.expr", "dini_fd", "expr.dini_fd", None),
     ("qdcalc.expr", "dini_convergence", "expr.dini_convergence", None),
     ("qdcalc.expr", "eval_expr", "expr.eval_expr", None)]
    + [("qdcalc.qdcore", r, f"qdcore.{r}", _out_gens) for r in _RULES]
    + [("qdcalc.qdcore", "qd_eval_dir", "qdcore.qd_eval_dir", None),
       ("qdcalc.geometry", "minkowski_sum", "geometry.minkowski_sum", _sum_sizes),
       ("qdcalc.geometry", "convex_union", "geometry.convex_union", None),
       ("qdcalc.geometry", "_prune_gens", "geometry.prune", _prune_sizes),
       ("qdcalc.geometry", "ConvexHull", "geometry.qhull", None),
       ("qdcalc.geometry", "linprog", "geometry.lp", None),
       ("qdcalc.geometry", "_lp_min_deviation", "geometry.deviation", None),
       ("qdcalc.geometry", "polar_cone", "geometry.polar_cone", None),
       ("qdcalc.geometry", "contains_point", "geometry.contains_point", None),
       ("qdcalc.geometry", "separating_direction", "geometry.separating_direction", None),
       ("qdcalc.geometry", "nearest_point", "geometry.nearest_point", None)]
    + [("qdcalc.optimality", c, f"optimality.{c}", None) for c in _CHECKS]
    + [("qdcalc.optimality", "quasiregularity_diagnostic",
        "optimality.quasiregularity_diagnostic", None),
       ("qdcalc.solver", "minimize", "solver.minimize", _iterations),
       ("qdcalc.solver", "steepest_descent_direction",
        "solver.steepest_descent_direction", None)]
)

# Counted without a span, so that their time stays in the caller's self time.
COUNTERS = (("qdcalc.qdcore", "_selection_polytope", "selections"),)

# Metrics, in the order BENCHMARK.json lists them, with their units.
PER_LAYER = (
    [("cli.load_problem.ms", "ms"), ("cli.emit.ms", "ms"),
     ("expr.qd_at.calls", "count"), ("expr.qd_at.ms", "ms"),
     ("expr.dini_fd.calls", "count"), ("expr.dini_fd.ms", "ms"),
     ("expr.eval_expr.calls", "count")]
    + [(f"qdcore.{r}.{k}", u) for r in _RULES for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("qdcore.selections", "count"), ("qdcore.out_gens.max", "count"),
       ("qdcore.qd_eval_dir.calls", "count"), ("qdcore.qd_eval_dir.ms", "ms"),
       ("geometry.minkowski_sum.calls", "count"), ("geometry.minkowski_sum.ms", "ms"),
       ("geometry.minkowski_sum.kept_ratio", "ratio"),
       ("geometry.convex_union.calls", "count"), ("geometry.convex_union.ms", "ms"),
       ("geometry.prune.qhull.calls", "count"), ("geometry.prune.qhull.ms", "ms"),
       ("geometry.prune.lp.calls", "count"), ("geometry.prune.lp.ms", "ms"),
       ("geometry.prune.removed_per_lp", "ratio"),
       ("geometry.lp.calls", "count"), ("geometry.lp.ms", "ms"),
       ("geometry.lp.check.calls", "count"), ("geometry.lp.polar.calls", "count"),
       ("geometry.polar_cone.calls", "count"), ("geometry.polar_cone.ms", "ms"),
       ("geometry.contains_point.calls", "count"), ("geometry.contains_point.ms", "ms"),
       ("geometry.separating_direction.calls", "count"),
       ("geometry.separating_direction.ms", "ms"),
       ("geometry.nearest_point.calls", "count"), ("geometry.nearest_point.ms", "ms")]
    + [(f"optimality.{c}.{k}", u) for c in _CHECKS for k, u in (("calls", "count"), ("ms", "ms"))]
    + [("optimality.quasiregularity_diagnostic.ms", "ms"), ("optimality.lp_per_row", "ratio"),
       ("solver.iterations", "count"), ("solver.iter_ms", "ms"),
       ("solver.steepest_descent_direction.ms", "ms"),
       ("solver.nearest_point_per_iter", "ratio"), ("solver.qd_at_per_iter", "ratio"),
       ("solver.eval_per_iter", "ratio"),
       ("trace.overhead_ratio", "ratio")]
)

def repeatable(metrics: dict) -> dict:
    """The metrics that must repeat exactly between two traced passes over
    the same problems: every call count plus the sizes the notes record."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in ("qdcore.selections", "qdcore.out_gens.max",
                                             "solver.iterations",
                                             "geometry.minkowski_sum.kept_ratio",
                                             "geometry.prune.removed_per_lp",
                                             "optimality.lp_per_row")}


def _bindings(modules, obj, attr):
    return [m for m in modules if m.__dict__.get(attr) is obj]


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.problem = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qdcalc" or name.startswith("qdcalc."))]
        for modname, attr, name, note in TARGETS:
            self._patch(modules, modname, attr, self._span_wrapper(
                getattr(sys.modules[modname], attr), name, note))
        for modname, attr, name in COUNTERS:
            self._patch(modules, modname, attr, self._count_wrapper(
                getattr(sys.modules[modname], attr), name))

    def _patch(self, modules, modname, attr, wrapper) -> None:
        orig = wrapper.__wrapped__
        targets = _bindings(modules, orig, attr)
        if not targets:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")
        for m in targets:
            setattr(m, attr, wrapper)
            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    # -- recording ----------------------------------------------------------

    def _span_wrapper(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def span(self, name: str, problem):
        """A span opened by the benchmark itself, e.g. around one cli.main call."""
        self.problem = problem
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, problem, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.problem = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# metrics

_LP_CLASS = {"geometry.prune": "prune", "geometry.polar_cone": "polar"}
_LP_CLASS.update({f"optimality.{c}": "check" for c in _CHECKS})
_LP_CLASS["optimality.quasiregularity_diagnostic"] = "check"
_ROW_PARENTS = {f"optimality.{c}" for c in _CHECKS}


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from one traced pass (totals over its problems)."""
    n = len(spans)
    child_s = [0.0] * n
    lp_class: list = [None] * n
    in_solver = [False] * n
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            lp_class[i] = lp_class[parent]
            in_solver[i] = in_solver[parent]
        lp_class[i] = _LP_CLASS.get(name, lp_class[i])
        in_solver[i] = in_solver[i] or name == "solver.minimize"
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
    for i, (name, t0, t1, *_rest) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_s[i]

    def c(name):
        return calls.get(name, 0)

    def ms(name):
        return 1000.0 * total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {
        "cli.load_problem.ms": ms("cli.load_problem"),
        "cli.emit.ms": ms("cli.emit"),
        "expr.qd_at.calls": c("expr.qd_at"),
        "expr.qd_at.ms": ms("expr.qd_at"),
        "expr.dini_fd.calls": c("expr.dini_fd") + c("expr.dini_convergence"),
        "expr.dini_fd.ms": ms("expr.dini_fd") + ms("expr.dini_convergence"),
        "expr.eval_expr.calls": c("expr.eval_expr"),
    }
    for r in _RULES:
        out[f"qdcore.{r}.calls"] = c(f"qdcore.{r}")
        out[f"qdcore.{r}.self_ms"] = 1000.0 * self_s.get(f"qdcore.{r}", 0.0)
    out["qdcore.selections"] = counts.get("selections", 0)
    out["qdcore.out_gens.max"] = max(
        (s[5] for s in spans if s[0].startswith("qdcore.qd_") and s[5] is not None), default=0)
    out["qdcore.qd_eval_dir.calls"] = c("qdcore.qd_eval_dir")
    out["qdcore.qd_eval_dir.ms"] = ms("qdcore.qd_eval_dir")

    formed = kept = 0
    for s in spans:
        if s[0] == "geometry.minkowski_sum" and s[5] is not None:
            formed += s[5][0]
            kept += s[5][1]
    out["geometry.minkowski_sum.calls"] = c("geometry.minkowski_sum")
    out["geometry.minkowski_sum.ms"] = ms("geometry.minkowski_sum")
    out["geometry.minkowski_sum.kept_ratio"] = ratio(kept, formed)
    out["geometry.convex_union.calls"] = c("geometry.convex_union")
    out["geometry.convex_union.ms"] = ms("geometry.convex_union")

    lp = {"prune": [0, 0.0], "check": [0, 0.0], "polar": [0, 0.0]}
    lp_parents = set()
    for i, s in enumerate(spans):
        if s[0] == "geometry.lp" and lp_class[i] in lp:
            lp[lp_class[i]][0] += 1
            lp[lp_class[i]][1] += s[2] - s[1]
    # A prune that solved LPs falls back from qhull; what it removed is
    # credited to those LPs.
    for i, s in enumerate(spans):
        if s[0] == "geometry.lp" and lp_class[i] == "prune":
            j = s[3]
            while j >= 0 and spans[j][0] != "geometry.prune":
                j = spans[j][3]
            lp_parents.add(j)
    removed = sum(spans[j][5][0] - spans[j][5][1] for j in lp_parents if j >= 0)
    out["geometry.prune.qhull.calls"] = c("geometry.qhull")
    out["geometry.prune.qhull.ms"] = ms("geometry.qhull")
    out["geometry.prune.lp.calls"] = lp["prune"][0]
    out["geometry.prune.lp.ms"] = 1000.0 * lp["prune"][1]
    out["geometry.prune.removed_per_lp"] = ratio(removed, lp["prune"][0])
    out["geometry.lp.calls"] = c("geometry.lp")
    out["geometry.lp.ms"] = ms("geometry.lp")
    out["geometry.lp.check.calls"] = lp["check"][0]
    out["geometry.lp.polar.calls"] = lp["polar"][0]
    for name in ("polar_cone", "contains_point", "separating_direction", "nearest_point"):
        out[f"geometry.{name}.calls"] = c(f"geometry.{name}")
        out[f"geometry.{name}.ms"] = ms(f"geometry.{name}")

    for chk in _CHECKS:
        out[f"optimality.{chk}.calls"] = c(f"optimality.{chk}")
        out[f"optimality.{chk}.ms"] = ms(f"optimality.{chk}")
    out["optimality.quasiregularity_diagnostic.ms"] = ms("optimality.quasiregularity_diagnostic")
    rows = sum(1 for s in spans
               if s[0] in ("geometry.contains_point", "geometry.deviation")
               and s[3] >= 0 and spans[s[3]][0] in _ROW_PARENTS)
    out["optimality.lp_per_row"] = ratio(lp["check"][0], rows)

    iters = sum(s[5] for s in spans if s[0] == "solver.minimize" and s[5] is not None)

    def per_iter(name):
        return ratio(sum(1 for i, s in enumerate(spans)
                         if s[0] == name and in_solver[i] and s[0] != "solver.minimize"), iters)

    out["solver.iterations"] = iters
    out["solver.iter_ms"] = ratio(ms("solver.minimize"), iters)
    out["solver.steepest_descent_direction.ms"] = ms("solver.steepest_descent_direction")
    out["solver.nearest_point_per_iter"] = per_iter("geometry.nearest_point")
    out["solver.qd_at_per_iter"] = per_iter("expr.qd_at")
    out["solver.eval_per_iter"] = per_iter("expr.eval_expr")
    return out
