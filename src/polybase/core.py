"""Integer submodular functions on small ground sets.

Subsets of the ground set are bitmasks: bit i corresponds to element i in
the fixed ground order.  Every function node holds ``values``, the tuple of
its 2^n integer values indexed by mask, computed once in its constructor
from its inner node's table: dual, shift, scale and block restriction take
one O(2^n) ``map`` pass, reduction one O(2^n) sweep per element (per
binding cap over a node known to be submodular).  Evaluating a mask is an
index into the table, so evaluation never recurses through composed
constructions (duals of reductions of scalings, ...).  All values are
integers and f(empty) = 0 by construction.

Whole-table kernels do not index the table one mask at a time.  Subset
sums are built by doubling.  Reduction and the matroid-rank check work one
bit at a time: ``_halves`` splits a table on one bit into a few aligned
slice pairs, and each sweep works on whole slices with
``map``/``zip``/``all``; reduction stays O(n 2^n).
The submodularity check packs the whole table into one integer, one
fixed-width field per mask, and tests each element pair with a few
big-integer operations over all 2^n fields at once: O(n^2 2^n) field
operations, run at C speed.  Each field has two spare bits above the
value spread, so the marginals and their differences never carry into or
borrow from the next field.  A failing pair's lowest clear top bit names
its first failing set, so a failure is located in the same pass.  A table
of values in 0..63 is its own packed form, taken by one ``bytes`` call.
Two kernels run the test: one-byte fields on at most 2^12 masks use field
masks built once per process (a few hundred KB in all), and every other
table is checked in slabs of at most 256 KB, as one slab when it fits, so
the check's memory stays a few tables' worth however wide the values are.

The one field written after construction is the memo ``submodular``:
``is_submodular`` sets it on success and returns at once when it is set,
and every construction, all of which preserve submodularity, copies it
from its inner node.  It only ever goes from None to True, so instances
may still be shared freely, across threads.

This module holds tables and constructions only: ``polybase.instance``
reads and writes function nodes as instance-document nodes.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from operator import add, and_, itemgetter, le, mul, sub

from .errors import UsageError

DEFAULT_GROUND_LIMIT = 12


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

    ``__init__`` takes the fields in slot order, positionally or by name,
    and raises TypeError for an unknown or missing one; assigning or
    deleting a field afterwards raises AttributeError.  Equality (same
    class, equal fields), hashing and repr go by the fields in slot order,
    as for a frozen dataclass.  ``dataclasses`` is avoided because its
    import, which pulls in ``inspect`` and ``ast``, slows the start of
    every CLI run.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            rest = names[len(values):]
            if named.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} fields are {names}, got "
                                f"{len(values)} positional and {tuple(named)} by name")
            values += tuple(map(named.__getitem__, rest))
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} fields are {names}, got {len(values)} values")
        for name, value in zip(names, values):
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
    iteration order and every tie-break in the package.  ``limit`` caps the
    size, since every table holds 2^n values.  It is checked, not stored: a
    copy of this ground, or a ground derived from it, passes this size.
    Names, checked after the size, are non-empty strs without ',' (a table key).
    """

    __slots__ = ("elements",)

    def __init__(self, elements, limit: int = DEFAULT_GROUND_LIMIT):
        _check_int(limit, "ground set size limit must be at least 1", 1)
        elements = _check_seq(elements, None, "ground elements", "a sequence of names")
        # reprs, since a set cannot hold an unhashable element (no name: refused below)
        if len(set(map(repr, elements))) != len(elements):
            raise UsageError(f"ground elements are not distinct: {elements}")
        if not 1 <= len(elements) <= limit:
            raise UsageError(f"ground set size {len(elements)} outside [1, {limit}]")
        if bad := [name for name in elements if not isinstance(name, str)]:
            raise UsageError(f"table keys cannot spell element {bad[0]!r}: not a string")
        if bad := sorted(name for name in elements if not name or "," in name):
            raise UsageError(f"table keys cannot spell element {bad[0]!r}: empty or holds ','")
        super().__init__(elements)

    def __reduce__(self):
        return GroundSet, (self.elements, len(self.elements))

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
        for name in _check_seq(names, None, "element names", "a sequence of names"):
            if m & (bit := 1 << self.index(name)):
                raise UsageError(f"element names of subsets and blocks repeat {name!r}")
            m |= bit
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(_check_mask(mask, self)))

    def subsets(self):
        """All subset masks in canonical (increasing bitmask) order."""
        return range(1 << self.n)


def _check_int(value, what: str, low: int | None = None) -> int:
    """value if it is an int, not a bool, and not below ``low``; else UsageError."""
    if not isinstance(value, int) or isinstance(value, bool) or low is not None and value < low:
        raise UsageError(f"{what}, got {value!r}")
    return value


def _check_seq(a, n: int | None, what: str, kind: str = "a sequence of integers") -> tuple:
    """a as a tuple of length n unless n is None; else UsageError naming ``what``."""
    try:
        a = tuple(a)
    except TypeError:
        raise UsageError(f"{what} must be {kind}, got {a!r}") from None
    if n is not None and len(a) != n:
        raise UsageError(f"{what} has length {len(a)}, expected {n}")
    return a


def _check_int_vector(a, n: int | None, what: str) -> tuple[int, ...]:
    """a as a tuple of ints, not bools, of length n unless n is None; else UsageError."""
    a = _check_seq(a, n, what)
    if not {int}.issuperset(map(type, a)):  # one C-level pass; the loop names the culprit
        for v in a:
            _check_int(v, f"{what} must have integer entries")
    return a


def _check_mask(mask, ground: GroundSet) -> int:
    """mask if it is an int, not a bool, of a subset of ground; else UsageError."""
    if not 0 <= _check_int(mask, "a subset mask must be an integer") <= ground.full_mask:
        raise UsageError(f"mask {mask:#x} out of range for ground set of size {ground.n}")
    return mask


def subset_sums(x) -> list:
    """sums[mask] = x(mask) for every mask over len(x) coordinates at once.

    Built by doubling: the masks that contain coordinate i are those below
    1 << i shifted up by it, so their sums are the ones so far plus x_i.
    """
    sums = [0]
    for xi in x:
        sums += list(map(add, sums, repeat(xi)))
    return sums


@cache
def _halves(size: int, s: int) -> tuple:
    """Split range(size) on the bit s into aligned slice pairs.

    In each pair (lo, hi), ``lo`` and ``hi`` select masks without the bit
    and the same masks with it, in the same order.  For a low bit the pairs
    are stride slices, one per residue below s; for a high bit they are
    contiguous runs, one per chunk of 2s masks.  Either way there are at
    most sqrt(size / 2) pairs, so a sweep over one bit takes a few dozen
    slice operations.  The pairs depend only on (size, s), so they are
    built once and shared as a tuple.
    """
    step = 2 * s
    if s * s <= size // 2:
        return tuple((slice(r, size, step), slice(r + s, size, step)) for r in range(s))
    return tuple((slice(c, c + s), slice(c + s, c + step)) for c in range(0, size, step))


# ---------------------------------------------------------------------------
# function nodes
# ---------------------------------------------------------------------------

class SubmodularFn:
    """Base class for integer set functions held as value tables.

    ``values[mask]`` is the value on the subset mask; calling an instance
    with a mask returns it after a type and range check.  Construction
    helpers (dual, shift, reduce, ...) build new nodes, each of which
    computes its own table once from this node's table; this constructor
    checks the table's length, ``TableFn`` its entries.  ``submodular`` is
    the one-way submodularity memo described in the module docstring.
    """

    def __init__(self, ground: GroundSet, values, submodular: bool | None = None):
        self.ground = ground
        self.values: tuple[int, ...] = _check_seq(values, 1 << ground.n, "table", "a sequence")
        self.submodular = submodular

    def __call__(self, mask: int) -> int:
        return self.values[_check_mask(mask, self.ground)]

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


class TableFn(SubmodularFn):
    """Explicit table of all 2^n values."""

    def __init__(self, ground: GroundSet, values):
        values = _check_int_vector(values, 1 << ground.n, "table")
        if values[0] != 0:
            raise UsageError(f"table value on the empty set must be 0, got {values[0]}")
        super().__init__(ground, values)


class UniformRank(SubmodularFn):
    """Rank function of the uniform matroid: min(|U|, r)."""

    def __init__(self, ground: GroundSet, rank: int):
        _check_int(rank, "uniform rank must be a nonnegative integer", 0)
        super().__init__(ground, [min(m.bit_count(), rank) for m in ground.subsets()])
        self.rank = rank


class PartitionRank(SubmodularFn):
    """Rank function of a partition matroid: sum of per-block capped counts."""

    def __init__(self, ground: GroundSet, blocks, caps):
        blocks = _check_seq(blocks, None, "partition blocks", "a sequence of masks")
        caps = _check_seq(caps, None, "partition caps")
        if len(blocks) != len(caps):
            raise UsageError("partition blocks and caps must have equal length")
        seen = 0
        for b in blocks:
            if _check_int(b, "partition blocks must be integer masks") & seen:
                raise UsageError("partition blocks overlap")
            seen |= b
        if seen != ground.full_mask:
            raise UsageError("partition blocks do not cover the ground set")
        for c in caps:
            _check_int(c, "partition caps must be nonnegative integers", 0)
        values = [0] * (1 << ground.n)
        for b, c in zip(blocks, caps):
            values = [v + min((m & b).bit_count(), c) for m, v in enumerate(values)]
        super().__init__(ground, values)
        self.blocks = blocks
        self.caps = caps


class GraphicRank(SubmodularFn):
    """Rank function of a graphic matroid.

    Ground element i is edge i of a multigraph on ``vertices`` vertices;
    rank of an edge subset = edges kept by union-find cycle elimination.
    """

    def __init__(self, ground: GroundSet, vertices: int, edges):
        edges = _check_seq(edges, None, "graphic edges", "a sequence of (u, v) pairs")
        if len(edges) != ground.n:
            raise UsageError(f"got {len(edges)} edges for a ground set of {ground.n} elements")
        _check_int(vertices, "graphic vertex count must be a positive integer", 1)
        edges = tuple(_check_seq(e, 2, "graphic edge", "a (u, v) pair") for e in edges)
        for u, v in edges:
            _check_int(u, "edge endpoints must be integers")
            _check_int(v, "edge endpoints must be integers")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise UsageError(f"edge ({u},{v}) outside vertex range 0..{vertices - 1}")
        super().__init__(ground, _forest_sizes(ground.n, edges))
        self.vertices = vertices
        self.edges = edges


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
        v = inner.values
        # E - U = full - U, so f(E - U) runs through the table backwards
        super().__init__(inner.ground, map(sub, reversed(v), repeat(v[-1])), inner.submodular)
        self.inner = inner


class ShiftFn(SubmodularFn):
    """(f + a)(U) = f(U) + a(U) for an integer vector a."""

    def __init__(self, inner: SubmodularFn, a):
        a = _check_int_vector(a, inner.ground.n, "shift vector")
        super().__init__(inner.ground, map(add, inner.values, subset_sums(a)), inner.submodular)
        self.inner = inner
        self.a = a


class ReduceFn(SubmodularFn):
    """(f | a)(U) = min over T subset of U of f(T) + a(U - T).

    Clips the extended polymatroid by the box x <= a.  Computed by one
    min-plus sweep per element i, h(U + i) = min(h(U + i), h(U) + a_i) over
    every U without i, which is exact for any f because a is modular: after
    the sweeps over elements 0..i, h(U) is the minimum over the T whose
    difference U - T lies in {0..i}.  O(n 2^n) in all.  Over a submodular
    f only binding caps a_i < f({i}) are swept: each partial h is submodular
    with h({i}) = f({i}), so h(U + i) <= h(U) + a_i for every other cap.
    """

    def __init__(self, inner: SubmodularFn, a):
        a = _check_int_vector(a, inner.ground.n, "reduction vector")
        h = list(inner.values)
        sweeps = enumerate(a)
        if inner.submodular:
            sweeps = [(i, ai) for i, ai in sweeps if ai < inner.values[1 << i]]
        for i, ai in sweeps:
            for lo, hi in _halves(len(h), 1 << i):
                # a conditional beats map(min, ...): min parses its arguments per call
                cands = map(add, h[lo], repeat(ai))
                h[hi] = [u if u < c else c for u, c in zip(h[hi], cands)]
        super().__init__(inner.ground, h, inner.submodular)
        self.inner = inner
        self.a = a


class ReduceAtFn(ReduceFn):
    """f | (e0, c): cap coordinate e0 at c, all others at f({e})."""

    def __init__(self, inner: SubmodularFn, element: str, cap: int):
        _check_int(cap, "cap must be an integer")
        pos = inner.ground.index(element)
        a = [inner.values[1 << i] for i in range(inner.ground.n)]
        a[pos] = cap
        super().__init__(inner, a)
        self.element = element
        self.cap = cap


class ScaleFn(SubmodularFn):
    """(r f)(U) = r * f(U) for a positive integer r."""

    def __init__(self, r: int, inner: SubmodularFn):
        _check_int(r, "scale factor must be a positive integer", 1)
        super().__init__(inner.ground, map(mul, inner.values, repeat(r)), inner.submodular)
        self.r = r
        self.inner = inner


class BlockRestrictFn(SubmodularFn):
    """Block function of a tight-chain step: U -> f(A_prev + U) - f(A_prev).

    Lives on a new ground set holding just the block's elements (in the
    parent's canonical order); used to factor faces into direct sums.
    """

    def __init__(self, inner: SubmodularFn, a_prev: int, block: int):
        for mask in (a_prev, block):
            _check_int(mask, "block restriction masks must be integers")
        if block == 0:
            raise UsageError("block restriction needs a nonempty block")
        if a_prev & block:
            raise UsageError("block restriction: A_prev and block overlap")
        full = inner.ground.full_mask
        if a_prev & ~full or block & ~full:
            raise UsageError("block restriction masks out of range")
        positions = tuple(bits(block))
        ground = GroundSet((inner.ground.elements[i] for i in positions), inner.ground.n)
        # the parent mask of a block mask is a_prev plus its elements' bits
        parent_masks = map(add, subset_sums([1 << p for p in positions]), repeat(a_prev))
        values = itemgetter(*parent_masks)(inner.values)
        super().__init__(ground, map(sub, values, repeat(inner.values[a_prev])), inner.submodular)
        self.inner = inner
        self.a_prev = a_prev
        self.block = block


# ---------------------------------------------------------------------------
# whole-function checks
# ---------------------------------------------------------------------------

# a table whose packed form exceeds this many bytes is checked slab by slab
_SLAB_BYTES = 1 << 18
# one-byte fields in one slab of at most 2^_CACHED_N masks run the cached kernel
_CACHED_N = 12
_BELOW_64 = bytes(range(64))


def is_submodular(f: SubmodularFn):
    """Exhaustive submodularity check by the local test.

    f is submodular iff f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and
    every pair i < j outside S.  The test runs on one packed integer: with
    u = f - min(f), field m (bits m w .. m w + w - 1) holds u(m), and the
    width w, a whole number of bytes, leaves at least two spare bits above
    the spread max(u).  Shifting right by w 2^i moves u(m + 2^i) into field
    m, so d = (u >> w 2^i) + Q - u, where Q holds 2^(w-2) in every field,
    holds 2^(w-2) + f(S+i) - f(S) in the field of each S without i.  Every
    field of it lies strictly between 0 and 2^(w-1), so nothing borrows
    across fields.  Then d + H - (d >> w 2^j), where H holds 2^(w-1) in
    every field, holds 2^(w-1) + (f(S+i) - f(S)) - (f(S+i+j) - f(S+j)),
    again inside its field, and its top bit is set exactly when the local
    inequality holds at S.  One mask of those top bits over the S without
    i and j checks all of them at once: a few big-integer operations per
    pair, O(n^2 2^n) field operations in all.  The cost per pair grows
    with w, so tables with spreads of many bits check more slowly.

    A table of values in 0..63 already is its packed one-byte form, since
    f(empty) = 0 puts its minimum at 0: ``bytes`` takes it in one C-level
    pass, with no minimum, maximum or subtraction.  The slab size comes
    first: a table packed wider than ``_SLAB_BYTES`` is cut along its top
    bits into slabs of 2^s fields, else s = n.  One-byte fields with
    s = n <= 12 run ``_packed_check``, whose top-bit masks are built once
    per process (a few hundred KB for every n together); every other table
    runs ``_slab_check``, as one slab when it fits.  So a call holds a few
    tables' worth of integers however wide its values are.

    When the tested integer t fails, bad = m & ~t holds the top bits of
    the failing fields, and the lowest lies in the field of the pair's
    first failing S = ((bad & -bad).bit_length() - 1) // w.  Only a failing
    pair computes it; ``_least`` keeps the least (S, i, j) over all pairs,
    so a failing table costs about one pass, as a passing one does.

    A set memo is trusted and skips the check.  Returns (True, None), or
    (False, (S+i, S+j)) for the first failure when S is scanned in
    canonical order, then i, then j: a pair with
    f(A) + f(B) < f(A | B) + f(A & B).  Success sets ``f.submodular``.
    """
    if f.submodular:
        return True, None
    v = f.values
    n = f.ground.n
    try:
        packed = bytes(v)  # ValueError: a value outside 0..255
    except ValueError:
        packed = None
    if packed is not None and not packed.translate(None, _BELOW_64):
        v, low, nbytes = packed, 0, 1
    else:
        low = min(v)
        nbytes = ((max(v) - low).bit_length() + 9) // 8
    # 2^s fields per slab: as many as fit in _SLAB_BYTES, at least one
    s = min(n, (_SLAB_BYTES // nbytes or 1).bit_length() - 1)
    if s == n <= _CACHED_N and nbytes == 1:
        first = _packed_check(_pack(v, low, 1), n)
    else:
        first = _slab_check(v, n, low, nbytes, s)
    if first:
        return False, first[1:]
    f.submodular = True
    return True, None


def _packed_check(u: int, n: int):
    """The least failing (S, S+i, S+j) of a one-byte table packed into u, or None."""
    high, rows = _byte_pair_masks(n)
    first = None
    for i, row in enumerate(rows):
        d = (u >> (8 << i)) + (high >> 1) - u
        dh = d + high
        for j, m in enumerate(row, i + 1):
            t = dh - (d >> (8 << j))
            if t & m != m:
                first = _least(first, m & ~t, 8, 0, i, j)
    return first


def _slab_check(v, n: int, low: int, nbytes: int, s: int):
    """The least failing (S, S+i, S+j) of v, checked on 2^(n-s) slabs of 2^s fields.

    Slab c packs the masks c 2^s .. c 2^s + 2^s - 1, one-byte fields by one
    ``bytes`` call.  An element i < s shifts fields within a slab, as in
    the whole table; an element i >= s pairs slab c with slab c + 2^(i-s)
    field for field.  So d[c], the marginal of i in slab c, is
    (u[c] >> w 2^i) + Q - u[c] or u[c + 2^(i-s)] + Q - u[c], and a pair with
    j >= s compares d[c] with d[c + 2^(j-s)] under the top bits of the
    fields without i (all fields when i >= s too).  At most u and d, each
    a table's worth, and slab-sized masks are held at once.
    """
    w = 8 * nbytes
    count = 1 << n - s
    u = [_pack(v[c << s:c + 1 << s], low, nbytes) for c in range(count)]
    high, without = _field_masks(s, nbytes)
    half = high >> 1
    first = None
    for i in range(n):
        # for i >= s the slabs of masks holding i get no marginal (0): no pair reads them
        ci, ki = (0, w << i) if i < s else (1 << i - s, 0)
        d = [0 if c & ci else (u[c | ci] >> ki) + half - u[c] for c in range(count)]
        mi = without[i] if i < s else high
        for c in range(count):
            if c & ci:
                continue
            dh = d[c] + high
            for j in range(i + 1, n):
                m, cj, kj = (mi & without[j], 0, w << j) if j < s else (mi, 1 << j - s, 0)
                if not c & cj:
                    t = dh - (d[c | cj] >> kj)
                    if t & m != m:
                        first = _least(first, m & ~t, w, c << s, i, j)
    return first


def _pack(v, low: int, nbytes: int) -> int:
    """The values v less low, as one integer of little-endian nbytes-byte fields."""
    if low:
        v = map(sub, v, repeat(low))
    if nbytes > 1:
        v = b"".join(map(int.to_bytes, v, repeat(nbytes), repeat("little")))
    return int.from_bytes(bytes(v), "little")  # bytes of a bytes object is that object


def _least(first, bad: int, w: int, base: int, i: int, j: int):
    """first, or (S, S+i, S+j) if less, for S = base + the w-bit field of bad's lowest bit."""
    at = base | ((bad & -bad).bit_length() - 1) // w
    if first is None or at < first[0]:
        return at, at | 1 << i, at | 1 << j
    return first


def _field_masks(n: int, nbytes: int):
    """(high, without) for fields of nbytes bytes over 2^n masks: high holds
    the top bit of every field, without[i] that of the masks without bit i."""
    top = bytes(nbytes - 1) + b"\x80"
    size = 1 << n
    high = int.from_bytes(top * size, "little")
    without = [
        int.from_bytes((top * (1 << i) + bytes(nbytes << i)) * (size >> i + 1), "little")
        for i in range(n)
    ]
    return high, without


@cache
def _byte_pair_masks(n: int):
    """(high, rows) for one-byte fields over 2^n masks, n <= _CACHED_N:
    rows[i] holds the top bits of the masks without i and j, for j > i."""
    high, without = _field_masks(n, 1)
    return high, tuple(tuple(map(and_, repeat(wi), without[i + 1:]))
                       for i, wi in enumerate(without))


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
        for lo, hi in _halves(len(v), 1 << i)
    )


def materialize(f: SubmodularFn) -> TableFn:
    """Freeze a node's value table into an explicit table node."""
    return TableFn(f.ground, f.values)
