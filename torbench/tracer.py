"""Per-layer tracing from the benchmark's side.

`Tracer.install()` wraps the public functions listed in TRACED and rebinds
every attribute of every loaded torstab module that refers to one of them,
so calls between modules (``from .stability import classify``) and inside a
module both go through the wrapper.  The program's source is not touched,
and only the traced worker process ever installs the wrappers.

Each wrapper times its call as a span nested under the innermost open span.
A function's self time is its span minus its child spans; the wrapper's own
bookkeeping is charged to neither, so the parent's self time excludes it.
A few work and waste measures are computed from arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

TRACED = {
    "cli": ("main", "validate_document", "run_document"),
    "stratify": ("stratify", "verify_decomposition", "stage_kn_minimizers"),
    "stability": ("classify", "destabilizer_bruteforce"),
    "kempf_ness": ("kn_minimize", "kn_eval"),
    "polytope": ("hull_position", "convex_combination", "minimal_face",
                 "ray_intersect", "solve_mixed_system"),
    "simplex": ("solve_lp", "solve_lp_mixed"),
    "qexact": ("saturated_kernel", "smith_normal_form", "nullspace", "rational_rank"),
    "shb_model": ("partitions_with_order", "positive_slice_lines",
                  "cyclic_phi_weights", "conformal_degree_table"),
    "graded_kuranishi": ("greens_operator", "kuranishi_inverse_graded",
                         "kuranishi_forward", "obstruction"),
}

SPANS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# work and waste measures: name -> unit
EXTRA = {
    "simplex.solve_lp.tableau_cells": "count",
    "polytope.lp_per_query": "ratio",
    "stability.classify.distinct_ratio": "ratio",
    "stability.destabilizer_bruteforce.points": "count",
    "stability.destabilizer_bruteforce.reach_ratio": "ratio",
    "kempf_ness.kn_minimize.iterations": "count",
    "shb_model.partitions_with_order.order_pairs": "count",
}


def box_index(x, bound: int) -> int:
    """Position of x in destabilizer_bruteforce's scan order: each axis runs
    0, 1, -1, 2, -2, ... and the first coordinate varies slowest."""
    idx = 0
    for c in x:
        idx = idx * (2 * bound + 1) + (2 * c - 1 if c > 0 else -2 * c)
    return idx


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        """Start a new tally (one per pass)."""
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (caller span, callee span) -> calls
        self.work: Counter = Counter()
        self.weight_sets: set = set()
        self._stack: list = []  # [name, child ns]
        self._polytope_depth = 0

    # -- hooks: (before, after) per span, reading arguments and results --

    def _solve_lp_before(self, args):
        m, n = len(args["a"]), len(args["c"])
        self.work["simplex.solve_lp.tableau_cells"] += m * (n + m + 1)
        if self._polytope_depth:
            self.work["lp_under_polytope"] += 1

    def _classify_before(self, args):
        self.weight_sets.add(tuple(sorted(args["v"].effective_g_weights())))

    def _bruteforce_after(self, args, result):
        weights = args["v"].effective_g_weights()
        k = len(next(iter(weights)))
        total = (2 * args["box_bound"] + 1) ** k
        self.work["stability.destabilizer_bruteforce.points"] += total
        reach = total if result is None else box_index(result, args["box_bound"]) + 1
        self.work["bruteforce_reach"] += reach

    def _kn_after(self, args, result):
        self.work["kempf_ness.kn_minimize.iterations"] += result.iterations

    def _poset_after(self, args, result):
        self.work["shb_model.partitions_with_order.order_pairs"] += len(result.order)

    def _hooks(self):
        return {
            "simplex.solve_lp": (self._solve_lp_before, None),
            "stability.classify": (self._classify_before, None),
            "stability.destabilizer_bruteforce": (None, self._bruteforce_after),
            "kempf_ness.kn_minimize": (None, self._kn_after),
            "shb_model.partitions_with_order": (None, self._poset_after),
        }

    def _wrap(self, name, fn):
        before, after = self._hooks().get(name, (None, None))
        sig = inspect.signature(fn) if (before or after) else None
        polytope = name.startswith("polytope.")
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                if before:
                    before(bound)
            stack = tracer._stack
            if stack:
                tracer.edges[(stack[-1][0], name)] += 1
            if polytope:
                if not tracer._polytope_depth:
                    tracer.work["polytope_queries"] += 1
                tracer._polytope_depth += 1
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if polytope:
                    tracer._polytope_depth -= 1
                tracer.calls[name] += 1
                tracer.self_ns[name] += (t1 - t0) - frame[1]
            if after:
                after(bound, result)
            if stack:
                stack[-1][1] += perf_counter_ns() - t_in
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function and rebind each reference to it."""
        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"torstab.{mod}")
            for fn in fns:
                orig = getattr(module, fn)
                originals[id(orig)] = self._wrap(f"{mod}.{fn}", orig)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "torstab" or modname.startswith("torstab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and getattr(wrapped, "__wrapped__", None) is value:
                    setattr(module, attr, wrapped)

    def snapshot(self) -> dict:
        """This tally as metric values: calls and self time per span, plus the
        work and waste measures."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        w = self.work
        out["simplex.solve_lp.tableau_cells"] = w["simplex.solve_lp.tableau_cells"]
        out["polytope.lp_per_query"] = w["lp_under_polytope"] / max(w["polytope_queries"], 1)
        out["stability.classify.distinct_ratio"] = (
            len(self.weight_sets) / max(self.calls["stability.classify"], 1))
        points = w["stability.destabilizer_bruteforce.points"]
        out["stability.destabilizer_bruteforce.points"] = points
        out["stability.destabilizer_bruteforce.reach_ratio"] = w["bruteforce_reach"] / max(points, 1)
        out["kempf_ness.kn_minimize.iterations"] = w["kempf_ness.kn_minimize.iterations"]
        out["shb_model.partitions_with_order.order_pairs"] = (
            w["shb_model.partitions_with_order.order_pairs"])
        return out

    def edge_list(self) -> list:
        return [[a, b, n] for (a, b), n in sorted(self.edges.items())]


def metric_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(EXTRA)
    return units
