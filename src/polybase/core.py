"""Integer submodular functions on small ground sets.

Subsets of the ground set are bitmasks: bit i corresponds to element i in
the fixed ground order.  Every function node holds ``values``, the tuple of
its 2^n integer values indexed by mask, computed once in its constructor
from its inner node's table: dual, shift, scale and block restriction take
one O(2^n) pass, reduction an O(n 2^n) dynamic program.  Evaluating a mask
is an index into the table, so evaluation never recurses through composed
constructions (duals of reductions of scalings, ...).  All values are
integers and f(empty) = 0 by construction.

Whole-table kernels (reduction, subset sums, the submodularity and
matroid-rank checks) work one bit at a time: ``_halves`` splits a table on
one bit into a few aligned slices, and each sweep works on whole slices
with ``map``/``zip``/``all`` instead of indexing the table one mask at a
time.  Reduction stays O(n 2^n) and the submodularity check O(n^2 2^n).

Instances never change after construction; they may be shared freely,
across threads too.
"""

from __future__ import annotations

import os
from itertools import repeat
from operator import add, le, sub

from .errors import InvariantViolation, UsageError

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


class Frozen:
    """Immutable value object whose fields are the names in ``__slots__``.

    ``__init__`` stores the fields once through ``_freeze``; assigning or
    deleting one afterwards raises AttributeError.  Equality (same class,
    equal fields), hashing and repr go by the fields in slot order, as for
    a frozen dataclass.  ``dataclasses`` is avoided because its import,
    which pulls in ``inspect`` and ``ast``, slows the start of every CLI
    run.
    """

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()


class GroundSet(Frozen):
    """An ordered finite set of named elements.

    The construction order is canonical: it fixes bit positions, subset
    iteration order and every tie-break in the package.
    """

    __slots__ = ("elements",)

    def __init__(self, elements):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise UsageError(f"ground elements are not distinct: {elements}")
        limit = ground_limit()
        if not 1 <= len(elements) <= limit:
            raise UsageError(f"ground set size {len(elements)} outside [1, {limit}]")
        self._freeze(elements)

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
    """sums[mask] = x(mask) for every mask over len(x) coordinates at once.

    Built by doubling: the masks that contain coordinate i are those below
    1 << i shifted up by it, so their sums are the ones so far plus x_i.
    """
    sums = [0]
    for xi in x:
        sums += list(map(add, sums, repeat(xi)))
    return sums


def _halves(size: int, s: int) -> list:
    """Split range(size) on the bit s into aligned slice triples.

    In each triple (lo, hi, half), ``lo`` and ``hi`` select masks without
    the bit and the same masks with it, in the same order, and ``half``
    selects where those masks go in a table of size // 2 indexed by the mask
    with the bit deleted (bits below s keep their place).  For a low bit the
    triples are stride slices, one per residue below s; for a high bit they
    are contiguous runs, one per chunk of 2s masks.  Either way there are at
    most sqrt(size / 2) triples, so a sweep over one bit takes a few dozen
    slice operations.
    """
    step = 2 * s
    if s * s <= size // 2:
        return [
            (slice(r, size, step), slice(r + s, size, step), slice(r, size // 2, s))
            for r in range(s)
        ]
    return [
        (slice(c, c + s), slice(c + s, c + step), slice(c // 2, c // 2 + s))
        for c in range(0, size, step)
    ]


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

    Clips the extended polymatroid by the box x <= a.  Computed by one
    min-plus sweep per element i, h(U + i) = min(h(U + i), h(U) + a_i) over
    every U without i, which is exact for any f because a is modular: after
    the sweeps over elements 0..i, h(U) is the minimum over the T whose
    difference U - T lies in {0..i}.  O(n 2^n) in all.
    """

    def __init__(self, inner: SubmodularFn, a):
        a = _check_int_vector(a, inner.ground.n, "reduction vector")
        h = list(inner.values)
        for i, ai in enumerate(a):
            for lo, hi, _ in _halves(len(h), 1 << i):
                # a conditional beats map(min, ...): min parses its arguments per call
                cands = map(add, h[lo], repeat(ai))
                h[hi] = [u if u < c else c for u, c in zip(h[hi], cands)]
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
    every pair i < j outside S, that is, iff for every element j the
    marginal table f(S+j) - f(S) does not increase along any bit i < j.
    Each marginal is one sweep over bit j, each comparison one sweep over
    bit i of the marginal, O(n^2 2^n) in all.  Returns (True, None), or
    (False, (S+i, S+j)) for the first failure when S is scanned in
    canonical order, then i, then j: a pair with
    f(A) + f(B) < f(A | B) + f(A & B).
    """
    v = f.values
    n = f.ground.n
    size = len(v)
    # every marginal table has size / 2 entries, so its splits are shared
    marginal_halves = [_halves(size // 2, 1 << i) for i in range(n - 1)]
    for j in range(n):
        d = [0] * (size // 2)
        for lo, hi, half in _halves(size, 1 << j):
            d[half] = map(sub, v[hi], v[lo])
        for halves in marginal_halves[:j]:
            for lo, hi, _ in halves:
                if not all(map(le, d[hi], d[lo])):
                    return False, _first_local_violation(v, n)
    return True, None


def _first_local_violation(v, n: int) -> tuple[int, int]:
    """The pair (S+i, S+j) of the first local failure in canonical order."""
    for s, vs in enumerate(v):
        free = [1 << i for i in range(n) if not s >> i & 1]
        for x, bi in enumerate(free):
            a = s | bi
            va = v[a]
            for bj in free[x + 1:]:
                b = s | bj
                if va + v[b] < v[a | b] + vs:
                    return a, b
    raise InvariantViolation("the bit sweeps rejected a table with no local violation")


def is_matroid_rank(f: SubmodularFn) -> bool:
    """Check nonnegativity, monotonicity and the unit-increment cap.

    Assumes f is submodular (not re-checked); under that assumption the
    three conditions characterize matroid rank functions.  One pass checks
    f(U) <= |U|, one sweep per bit f(U) <= f(U + i); with f(empty) = 0 the
    sweeps also give f(U) >= 0.
    """
    v = f.values
    if not all(map(le, v, subset_sums([1] * f.ground.n))):
        return False
    return all(
        all(map(le, v[lo], v[hi]))
        for i in range(f.ground.n)
        for lo, hi, _ in _halves(len(v), 1 << i)
    )


def materialize(f: SubmodularFn) -> TableFn:
    """Freeze a node's value table into an explicit table node."""
    return TableFn(f.ground, f.values)
