"""Spans and counters around polybase's public entry points.

``Tracer`` replaces functions under the names their calling modules bind
(``polybase.decompose.find_vertex``, ``polybase.cli.dimension``, ...) with
wrappers that record a span (name, start, end, parent, op) or bump a
counter, and puts the originals back on exit.  Spans stay in memory until
``write`` dumps them as JSON lines.  Per-call counters on the function
nodes (``SubmodularFn.__call__`` and every ``_value``) record counts only,
and the outermost ``ReduceFn._value`` records time only, because those run
millions of times per pass.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) pairs wrapped under that name
SPANS = {
    "decompose.entry": [
        ("polybase.decompose", "decompose"),
        ("polybase.decompose", "split_into_k_bases"),
        ("polybase.cli", "run_decompose"),
    ],
    "decompose.verify": [("polybase.decompose", "verify"), ("polybase.cli", "run_verify")],
    "decompose.merge": [("polybase.decompose", "_interleave")],
    "lp.build": [("polybase.decompose", "build_intersection_system")],
    "lp.solve": [("polybase.decompose", "find_vertex")],
    "polytope.face": [
        ("polybase.decompose", "face_structure"),
        ("polybase.decompose", "minimal_face_of_point"),
    ],
    "polytope.member": [
        ("polybase.decompose", "in_base_polytope"),
        ("polybase.decompose", "in_extended_polymatroid"),
    ],
    "polytope.dim": [("polybase.decompose", "dimension"), ("polybase.cli", "dimension")],
    "instance.parse": [("polybase.instance", "parse_instance"), ("polybase.cli", "load_instance")],
    "cli.certificate": [("polybase.cli", "certificate_dict"), ("polybase.cli", "to_json")],
}

NODE_CASES = ("leaf", "direct_sum", "face_drop", "split", "point_face")


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, reduce_s inside]
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.nodes: Counter = Counter()
        self.depth_max = 0
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        import polybase.cli  # noqa: F401  (loads every wrapped module)

        self._stats = sys.modules["polybase.lp"].stats
        self._lp0 = dict(self._stats)
        for name, targets in SPANS.items():
            for mod, attr in targets:
                module = sys.modules[mod]
                self._replace(module, attr, self._span(name, getattr(module, attr)))
        lp = sys.modules["polybase.lp"]
        self._replace(lp, "_null_direction", self._count("lp.purify_steps", lp._null_direction))
        self._wrap_core(sys.modules["polybase.core"])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for key in ("pivots", "infeasible_systems"):
            self.counts[f"lp.{key}"] = self._stats[key] - self._lp0[key]
        return False

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_core(self, core):
        calls = [0]
        evals = [0]
        self._core_cells = (calls, evals)
        call = core.SubmodularFn.__call__

        def counted_call(fn, mask):
            calls[0] += 1
            return call(fn, mask)

        self._replace(core.SubmodularFn, "__call__", counted_call)

        classes = [core.SubmodularFn]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            if "_value" not in cls.__dict__ or cls is core.SubmodularFn:
                continue
            value = cls.__dict__["_value"]
            if cls is core.ReduceFn:
                value = self._timed_reduce(value)
            self._replace(cls, "_value", self._counted_value(value, evals))

    @staticmethod
    def _counted_value(value, evals):
        def wrapper(fn, mask):
            evals[0] += 1
            return value(fn, mask)

        return wrapper

    def _timed_reduce(self, value):
        depth = [0]
        spans, stack = self.spans, self.stack

        def wrapper(fn, mask):
            if depth[0]:
                depth[0] += 1
                try:
                    return value(fn, mask)
                finally:
                    depth[0] -= 1
            depth[0] = 1
            start = perf_counter()
            try:
                return value(fn, mask)
            finally:
                took = perf_counter() - start
                depth[0] = 0
                self.counts["core.reduce_s"] += took
                if stack:
                    spans[stack[-1]][5] += took

        return wrapper

    # -- observations -------------------------------------------------

    def _observe(self, name, result):
        if name == "lp.build":
            self.counts["lp.rows"] += len(result.ineqs) + len(result.eqs)
        elif name == "decompose.entry" and isinstance(result, tuple) and len(result) == 2:
            self._walk(result[1], 1)

    def _walk(self, node, depth):
        self.nodes[node.case] += 1
        self.depth_max = max(self.depth_max, depth)
        for child in node.children:
            self._walk(child, depth + 1)

    # -- results ------------------------------------------------------

    def layer_totals(self) -> dict:
        """Summed duration and call count per span name, plus entry self time.

        Self time of an entry span is its duration minus its direct
        child spans and the outermost reduce time spent directly under it.
        """
        total = Counter()
        calls = Counter()
        child = Counter()
        for name, start, end, parent, _, reduce_s in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s = sum(
            end - start - child[i] - reduce_s
            for i, (name, start, end, _, _, reduce_s) in enumerate(self.spans)
            if name == "decompose.entry"
        )
        calls_cell, evals_cell = self._core_cells
        return {
            "total": total,
            "calls": calls,
            "entry_self_s": self_s,
            "core_calls": calls_cell[0],
            "core_evals": evals_cell[0],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, _ in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
