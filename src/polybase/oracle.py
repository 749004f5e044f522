"""Exhaustive-search oracles for small instances.

Everything here is deliberately naive: box scans, permutation sweeps and
depth-first multiset search.  The oracles validate the main algorithms
and share no code with the recursion or the LP, but they share three
``polytope`` helpers with the engine: ``bounding_box`` and
``in_base_polytope`` (the engine's input membership test) in
``enumerate_base_points``, and ``greedy_vertex`` in ``enumerate_vertices``.
A defect in one of those moves an oracle and the engine alike; the ROADMAP
plan for an independent ``verify`` covers these shared paths as well.
Budgets are explicit; exceeding one raises BudgetExceeded, never truncates.
"""

from __future__ import annotations

import itertools
import math

from .core import Frozen, SubmodularFn, _check_int, _check_int_vector
from .errors import BudgetExceeded, UsageError
from .polytope import bounding_box, greedy_vertex, in_base_polytope

ENUM_BOX_BUDGET = 10_000_000
VERTEX_ENUM_MAX_N = 7
MIN_DEC_MAX_POINTS = 20
MIN_DEC_MAX_K = 6


class PointSet(Frozen):
    """Deduplicated integer points in canonical lexicographic order."""

    __slots__ = ("points", "provenance")

    def __contains__(self, p) -> bool:
        return _check_int_vector(p, None, "point") in self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def enumerate_base_points(f: SubmodularFn) -> PointSet:
    """All integer points of B_f, by scanning the bounding box."""
    lower, upper = bounding_box(f)
    volume = 1
    for lo, hi in zip(lower, upper):
        volume *= max(0, hi - lo + 1)
        if volume > ENUM_BOX_BUDGET:
            raise BudgetExceeded(f"bounding box volume exceeds budget {ENUM_BOX_BUDGET}")
    pts = [
        p
        for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper)))
        if in_base_polytope(f, p)
    ]
    pts.sort()
    return PointSet(tuple(pts), "box-scan")


def enumerate_vertices(f: SubmodularFn) -> PointSet:
    """Greedy vertices over all visiting orders, deduplicated."""
    n = f.ground.n
    if n > VERTEX_ENUM_MAX_N:
        raise BudgetExceeded(
            f"vertex enumeration needs n <= {VERTEX_ENUM_MAX_N}, got {n}"
        )
    seen = {greedy_vertex(f, order) for order in itertools.permutations(range(n))}
    return PointSet(tuple(sorted(seen)), "greedy-orders")


def _multiset_sweep(pts, k: int, n: int):
    """Map each sum of a k-multiset of pts to its fewest distinct points."""
    if math.comb(len(pts) + k - 1, k) > 5_000_000:
        raise BudgetExceeded(
            f"{len(pts)} points at multiplicity {k} exceed the sweep budget"
        )
    table: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations_with_replacement(range(len(pts)), k):
        total = [0] * n
        for idx in combo:
            p = pts[idx]
            for i in range(n):
                total[i] += p[i]
        key = tuple(total)
        distinct = len(set(combo))
        prev = table.get(key)
        if prev is None or distinct < prev:
            table[key] = distinct
    return table


def _budgeted_base_points(f: SubmodularFn) -> list[tuple[int, ...]]:
    """The integer points of B_f, unless there are more than the multiset sweeps allow."""
    base = enumerate_base_points(f)
    if len(base) > MIN_DEC_MAX_POINTS:
        raise BudgetExceeded(f"{len(base)} base points exceed oracle budget {MIN_DEC_MAX_POINTS}")
    return list(base)


def min_decomposition_size(f: SubmodularFn, w, k: int):
    """Fewest distinct base points expressing w with total multiplicity k.

    Exhaustive sweep over all k-multisets of base points, so the returned
    value is provably minimal.  Returns None when w has no expression at
    multiplicity k.
    """
    _check_int(k, "multiplicity must be a positive integer")
    if k < 1 or k > MIN_DEC_MAX_K:
        raise BudgetExceeded(f"k = {k} outside oracle budget 1..{MIN_DEC_MAX_K}")
    w = _check_int_vector(w, f.ground.n, "vector")
    return _multiset_sweep(_budgeted_base_points(f), k, f.ground.n).get(w)


def cr_exact(f: SubmodularFn, k_max: int) -> int:
    """Largest minimum-support size over all w in k B_f, k <= k_max.

    A certified lower bound on the worst-case number of distinct bases
    any target ever needs; with k_max large enough it reaches dim B_f + 1.
    Report results as "cr >= value", never as the exact rank, since the
    attaining multiplicity is not bounded a priori.
    """
    _check_int(k_max, "multiplicity must be a positive integer")
    if k_max < 1:
        raise UsageError("k_max must be positive")
    if k_max > MIN_DEC_MAX_K:
        raise BudgetExceeded(f"k_max = {k_max} outside oracle budget {MIN_DEC_MAX_K}")
    pts = _budgeted_base_points(f)
    best = 0
    for k in range(1, k_max + 1):
        table = _multiset_sweep(pts, k, f.ground.n)
        targets = enumerate_base_points(f.scale(k) if k > 1 else f)
        for w in targets:
            size = table.get(w)
            if size is None:
                raise UsageError(f"target {w} in {k} B_f has no multiplicity-{k} expression")
            if size > best:
                best = size
    return best
