"""Integer submodular functions on small ground sets.

Subsets of the ground set are bitmasks: bit i corresponds to element i in
the fixed ground order.  Every function node holds ``values``, the tuple of
its 2^n integer values indexed by mask, computed once in its constructor
from its inner node's table: dual, shift, scale and block restriction take
one O(2^n) pass, reduction an O(n 2^n) dynamic program.  Evaluating a mask
is an index into the table, so evaluation never recurses through composed
constructions (duals of reductions of scalings, ...).  All values are
integers and f(empty) = 0 by construction.

Instances never change after construction; they may be shared freely,
across threads too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import UsageError

DEFAULT_GROUND_LIMIT = 12

_limit_override: int | None = None


def set_ground_limit(n: int | None) -> None:
    """Override the ground-set size cap (None restores env/default)."""
    global _limit_override
    _limit_override = n


def ground_limit() -> int:
    if _limit_override is not None:
        return _limit_override
    env = os.environ.get("POLYBASE_LIMIT_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"POLYBASE_LIMIT_N is not an integer: {env!r}")
    return DEFAULT_GROUND_LIMIT


# ---------------------------------------------------------------------------
# ground sets and subset masks
# ---------------------------------------------------------------------------

def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of named elements.

    The construction order is canonical: it fixes bit positions, subset
    iteration order and every tie-break in the package.
    """

    elements: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise UsageError(f"ground elements are not distinct: {self.elements}")
        limit = ground_limit()
        if not 1 <= len(self.elements) <= limit:
            raise UsageError(
                f"ground set size {len(self.elements)} outside [1, {limit}]"
            )

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise UsageError(f"unknown ground element {name!r}")

    def mask_of(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(mask))

    def subsets(self):
        """All subset masks in canonical (increasing bitmask) order."""
        return range(1 << self.n)


def _check_int_vector(a, n: int, what: str) -> tuple[int, ...]:
    a = tuple(a)
    if len(a) != n:
        raise UsageError(f"{what} has length {len(a)}, ground set has {n}")
    for v in a:
        if not isinstance(v, int) or isinstance(v, bool):
            raise UsageError(f"{what} must have integer entries, got {v!r}")
    return a


def vector_sum(x, mask: int) -> int:
    """Coordinate sum of x over the subset mask: x(U)."""
    return sum(x[i] for i in bits(mask))


def subset_sums(x) -> list:
    """sums[mask] = x(mask) for every mask over len(x) coordinates at once."""
    sums = [0] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


# ---------------------------------------------------------------------------
# function nodes
# ---------------------------------------------------------------------------

class SubmodularFn:
    """Base class for integer set functions held as value tables.

    ``values[mask]`` is the value on the subset mask; calling an instance
    with a mask returns it after a range check.  Construction helpers
    (dual, shift, reduce, ...) build new nodes, each of which computes its
    own table once from this node's table.
    """

    def __init__(self, ground: GroundSet, values):
        self.ground = ground
        self.values: tuple[int, ...] = tuple(values)

    def __call__(self, mask: int) -> int:
        if not 0 <= mask < len(self.values):
            raise UsageError(
                f"mask {mask:#x} out of range for ground set of size {self.ground.n}"
            )
        return self.values[mask]

    # -- constructions ------------------------------------------------

    def dual(self) -> "SubmodularFn":
        return DualFn(self)

    def shift(self, a) -> "SubmodularFn":
        return ShiftFn(self, a)

    def reduce(self, a) -> "SubmodularFn":
        return ReduceFn(self, a)

    def reduce_at(self, element: str, cap: int) -> "SubmodularFn":
        return ReduceAtFn(self, element, cap)

    def scale(self, r: int) -> "SubmodularFn":
        return ScaleFn(r, self)

    def block_restrict(self, a_prev: int, block: int) -> "SubmodularFn":
        return BlockRestrictFn(self, a_prev, block)

    # -- serialization ------------------------------------------------

    def to_node_dict(self) -> dict:
        raise NotImplementedError


class TableFn(SubmodularFn):
    """Explicit table of all 2^n values."""

    def __init__(self, ground: GroundSet, values):
        values = tuple(values)
        if len(values) != 1 << ground.n:
            raise UsageError(
                f"table has {len(values)} entries, expected {1 << ground.n}"
            )
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise UsageError(f"table values must be integers, got {v!r}")
        if values[0] != 0:
            raise UsageError(f"table value on the empty set must be 0, got {values[0]}")
        super().__init__(ground, values)

    def to_node_dict(self) -> dict:
        vals = {}
        for mask in self.ground.subsets():
            key = ",".join(sorted(self.ground.names_of(mask)))
            vals[key] = self.values[mask]
        return {"type": "table", "values": vals}


class UniformRank(SubmodularFn):
    """Rank function of the uniform matroid: min(|U|, r)."""

    def __init__(self, ground: GroundSet, rank: int):
        if not isinstance(rank, int) or rank < 0:
            raise UsageError(f"uniform rank must be a nonnegative integer, got {rank!r}")
        super().__init__(ground, [min(m.bit_count(), rank) for m in ground.subsets()])
        self.rank = rank

    def to_node_dict(self) -> dict:
        return {"type": "uniform", "rank": self.rank}


class PartitionRank(SubmodularFn):
    """Rank function of a partition matroid: sum of per-block capped counts."""

    def __init__(self, ground: GroundSet, blocks, caps):
        blocks = tuple(blocks)
        caps = tuple(caps)
        if len(blocks) != len(caps):
            raise UsageError("partition blocks and caps must have equal length")
        seen = 0
        for b in blocks:
            if b & seen:
                raise UsageError("partition blocks overlap")
            seen |= b
        if seen != ground.full_mask:
            raise UsageError("partition blocks do not cover the ground set")
        for c in caps:
            if not isinstance(c, int) or c < 0:
                raise UsageError(f"partition caps must be nonnegative integers, got {c!r}")
        values = [0] * (1 << ground.n)
        for b, c in zip(blocks, caps):
            values = [v + min((m & b).bit_count(), c) for m, v in enumerate(values)]
        super().__init__(ground, values)
        self.blocks = blocks
        self.caps = caps

    def to_node_dict(self) -> dict:
        return {
            "type": "partition",
            "blocks": [list(self.ground.names_of(b)) for b in self.blocks],
            "caps": list(self.caps),
        }


class GraphicRank(SubmodularFn):
    """Rank function of a graphic matroid.

    Ground element i is edge i of a multigraph on ``vertices`` vertices;
    rank of an edge subset = edges kept by union-find cycle elimination.
    """

    def __init__(self, ground: GroundSet, vertices: int, edges):
        edges = tuple(tuple(e) for e in edges)
        if len(edges) != ground.n:
            raise UsageError(
                f"got {len(edges)} edges for a ground set of {ground.n} elements"
            )
        if vertices < 1:
            raise UsageError("graphic matroid needs at least one vertex")
        for u, v in edges:
            if not all(isinstance(p, int) and not isinstance(p, bool) for p in (u, v)):
                raise UsageError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise UsageError(f"edge ({u},{v}) outside vertex range 0..{vertices - 1}")
        super().__init__(ground, _forest_sizes(ground.n, edges))
        self.vertices = vertices
        self.edges = edges

    def to_node_dict(self) -> dict:
        return {
            "type": "graphic",
            "vertices": self.vertices,
            "edges": [list(e) for e in self.edges],
        }


def _forest_sizes(n: int, edges) -> list[int]:
    """Rank of every edge subset: the edges union-find keeps as a forest.

    One depth-first pass decides edge 0, 1, ... in turn, adding an edge
    to the union-find on the way down and undoing it on the way back, so
    every subset costs one union-find step.  Only roots are absent from
    ``parent``, so the work never depends on the number of vertices.
    """
    values = [0] * (1 << n)
    parent = {}

    def find(v):
        while v in parent:
            v = parent[v]
        return v

    def visit(i, mask, rank):
        if i == n:
            values[mask] = rank
            return
        visit(i + 1, mask, rank)
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            visit(i + 1, mask | 1 << i, rank)
        else:
            parent[ru] = rv
            visit(i + 1, mask | 1 << i, rank + 1)
            del parent[ru]

    visit(0, 0, 0)
    return values


class DualFn(SubmodularFn):
    """f*(U) = f(E - U) - f(E); reflects the base polytope through 0."""

    def __init__(self, inner: SubmodularFn):
        fe = inner.values[-1]
        # E - U = full - U, so f(E - U) runs through the table backwards
        super().__init__(inner.ground, (v - fe for v in reversed(inner.values)))
        self.inner = inner

    def to_node_dict(self) -> dict:
        return {"type": "dual", "inner": self.inner.to_node_dict()}


class ShiftFn(SubmodularFn):
    """(f + a)(U) = f(U) + a(U) for an integer vector a."""

    def __init__(self, inner: SubmodularFn, a):
        a = _check_int_vector(a, inner.ground.n, "shift vector")
        sums = subset_sums(a)
        super().__init__(inner.ground, (v + s for v, s in zip(inner.values, sums)))
        self.inner = inner
        self.a = a

    def to_node_dict(self) -> dict:
        return {"type": "shift", "a": list(self.a), "inner": self.inner.to_node_dict()}


class ReduceFn(SubmodularFn):
    """(f | a)(U) = min over T subset of U of f(T) + a(U - T).

    Clips the extended polymatroid by the box x <= a.  Computed by the
    dynamic program h(U) = min(f(U), min over i in U of h(U - i) + a_i),
    which is exact for any f because a is modular: an optimal T either is
    U or misses some i in U, and then it is also feasible for U - i.
    """

    def __init__(self, inner: SubmodularFn, a):
        a = _check_int_vector(a, inner.ground.n, "reduction vector")
        h = list(inner.values)
        for mask in range(1, len(h)):
            for i in bits(mask):
                cand = h[mask ^ (1 << i)] + a[i]
                if cand < h[mask]:
                    h[mask] = cand
        super().__init__(inner.ground, h)
        self.inner = inner
        self.a = a

    def to_node_dict(self) -> dict:
        return {"type": "reduce", "a": list(self.a), "inner": self.inner.to_node_dict()}


class ReduceAtFn(ReduceFn):
    """f | (e0, c): cap coordinate e0 at c, all others at f({e})."""

    def __init__(self, inner: SubmodularFn, element: str, cap: int):
        if not isinstance(cap, int) or isinstance(cap, bool):
            raise UsageError(f"cap must be an integer, got {cap!r}")
        pos = inner.ground.index(element)
        a = [inner.values[1 << i] for i in range(inner.ground.n)]
        a[pos] = cap
        super().__init__(inner, a)
        self.element = element
        self.cap = cap

    def to_node_dict(self) -> dict:
        return {
            "type": "reduce_at",
            "e": self.element,
            "c": self.cap,
            "inner": self.inner.to_node_dict(),
        }


class ScaleFn(SubmodularFn):
    """(r f)(U) = r * f(U) for a positive integer r."""

    def __init__(self, r: int, inner: SubmodularFn):
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise UsageError(f"scale factor must be a positive integer, got {r!r}")
        super().__init__(inner.ground, (r * v for v in inner.values))
        self.r = r
        self.inner = inner

    def to_node_dict(self) -> dict:
        return {"type": "scale", "r": self.r, "inner": self.inner.to_node_dict()}


class BlockRestrictFn(SubmodularFn):
    """Block function of a tight-chain step: U -> f(A_prev + U) - f(A_prev).

    Lives on a new ground set holding just the block's elements (in the
    parent's canonical order); used to factor faces into direct sums.
    """

    def __init__(self, inner: SubmodularFn, a_prev: int, block: int):
        if block == 0:
            raise UsageError("block restriction needs a nonempty block")
        if a_prev & block:
            raise UsageError("block restriction: A_prev and block overlap")
        full = inner.ground.full_mask
        if a_prev & ~full or block & ~full:
            raise UsageError("block restriction masks out of range")
        positions = tuple(bits(block))
        ground = GroundSet(tuple(inner.ground.elements[i] for i in positions))
        # the parent mask of a block mask is the sum of its elements' bits
        parent_masks = subset_sums([1 << p for p in positions])
        base = inner.values[a_prev]
        super().__init__(
            ground, (inner.values[a_prev | m] - base for m in parent_masks)
        )
        self.inner = inner
        self.a_prev = a_prev
        self.block = block

    def to_node_dict(self) -> dict:
        parent = self.inner.ground
        return {
            "type": "block_restrict",
            "a_prev": list(parent.names_of(self.a_prev)),
            "block": list(parent.names_of(self.block)),
            "inner": self.inner.to_node_dict(),
        }


# ---------------------------------------------------------------------------
# whole-function checks
# ---------------------------------------------------------------------------

def is_submodular(f: SubmodularFn):
    """Exhaustive submodularity check by the local test.

    f is submodular iff f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and
    every pair i < j outside S.  Scans S in canonical order, then i, then j,
    in O(n^2 2^n).  Returns (True, None) or (False, (S+i, S+j)) for the
    first failure, a pair with f(A) + f(B) < f(A | B) + f(A & B).
    """
    v = f.values
    n = f.ground.n
    for s, vs in enumerate(v):
        free = [1 << i for i in range(n) if not s >> i & 1]
        for x, bi in enumerate(free):
            a = s | bi
            va = v[a]
            for bj in free[x + 1:]:
                b = s | bj
                if va + v[b] < v[a | b] + vs:
                    return False, (a, b)
    return True, None


def is_matroid_rank(f: SubmodularFn) -> bool:
    """Check nonnegativity, monotonicity and the unit-increment cap.

    Assumes f is submodular (not re-checked); under that assumption the
    three conditions characterize matroid rank functions.
    """
    v = f.values
    n = f.ground.n
    for mask, val in enumerate(v):
        if val < 0 or val > popcount(mask):
            return False
        for i in range(n):
            if not mask & (1 << i) and v[mask | (1 << i)] < val:
                return False
    return True


def materialize(f: SubmodularFn) -> TableFn:
    """Freeze a node's value table into an explicit table node."""
    return TableFn(f.ground, f.values)
