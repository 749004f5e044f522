"""Queries on extended polymatroids EP_f and base polytopes B_f.

Membership and tightness are decided by exhaustive subset checks (the
ground sets are small by contract); membership and the sets tight at a
point take one C-level ``map`` pass over the subset sums x(U) and the
value table.  Tightness of a subset U for the whole base polytope uses
the closed-form criterion f(U) + f(E-U) = f(E), which equals the
definitional "x(U) = f(U) for every point" because the minimum of x(U)
over B_f is f(E) - f(E-U), attained by a greedy vertex that fills E-U
first.  The test suite validates this against vertex enumeration.

Membership and faces of k B_f = B_{kf} read f's table scaled by k; k
must be a positive int, not a bool, and x a sequence of n ints.  Each
public query takes a point, never its sums: it checks its arguments,
builds x's subset sums and k f's table, and calls a private kernel on bare
tables (``_first_violation``, ``_face_chain``), or, in ``in_base_polytope``,
compares them itself.  The kernels, ``_in_base`` too, take the table they
compare against, already scaled, and scale nothing.
``decompose`` calls them directly on the points it derives, whose sums it
built, with the scaled tables it carries, so those are checked once, where
they enter the package.

``verify`` reads ``in_base_polytope`` and ``dimension``, and they share no
kernel with the engine: one scans x(U) <= f(U) itself, the other counts
separators; only ``core``'s ``subset_sums`` and vector check are common.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import add, eq, gt, indexOf, le, xor

from .core import Frozen, SubmodularFn, _check_int, _check_int_vector, _check_seq, _positions
from .core import subset_sums
from .errors import UsageError


def in_extended_polymatroid(f: SubmodularFn, x, k: int = 1):
    """Check x(U) <= k f(U) for all U: membership in k EP_f.

    Returns (True, None) or (False, U) with the first violating subset
    mask in canonical order.
    """
    sums = _subset_sums_of(f, x)[1]
    _check_int(k, "multiplicity must be a positive integer", 1)
    violated = _first_violation(sums, _times(f.values, k))
    return violated is None, violated


def _first_violation(sums, kf):
    """The first mask U in canonical order with sums[U] > kf[U], or None."""
    if all(map(le, sums, kf)):
        return None
    return indexOf(map(gt, sums, kf), True)


def in_base_polytope(f: SubmodularFn, x) -> bool:
    """Membership in B_f: x(E) = f(E) and x(U) <= f(U), scanned here, not by an engine kernel."""
    sums, values = _subset_sums_of(f, x)[1], f.values
    return sums[-1] == values[-1] and all(map(le, sums, values))


def _in_base(sums, values) -> bool:
    return sums[-1] == values[-1] and all(map(le, sums, values))


def _times(values, k: int):
    """k times a value table; the table itself when k = 1."""
    return values if k == 1 else [v * k for v in values]


def bounding_box(f: SubmodularFn):
    """Coordinatewise bounds valid on all of B_f.

    lower(e) = f(E) - f(E - e), upper(e) = f({e}).
    """
    full = f.ground.full_mask
    fe = f(full)
    lower = tuple(fe - f(full ^ (1 << i)) for i in range(f.ground.n))
    upper = tuple(f(1 << i) for i in range(f.ground.n))
    return lower, upper


def greedy_vertex(f: SubmodularFn, order=None) -> tuple[int, ...]:
    """Greedy marginal-gain vertex of B_f for a visiting order.

    order is a permutation of element positions; canonical order when
    omitted.  The output is an integer point of B_f for submodular f.
    """
    n = f.ground.n
    order = range(n) if order is None else _check_seq(order, None, "order")
    if not {int}.issuperset(map(type, order)) or sorted(order) != list(range(n)):
        raise UsageError(f"order {order} is not a permutation of 0..{n - 1}")
    x = [0] * n
    mask = 0
    for i in order:
        grown = mask | (1 << i)
        x[i] = f(grown) - f(mask)
        mask = grown
    return tuple(x)


def tight_sets(f: SubmodularFn) -> list[int]:
    """All subsets tight on the whole of B_f, in canonical order.

    U qualifies iff f(U) + f(E-U) = f(E).  The family contains the empty
    set and E and is closed under union and intersection.
    """
    v = f.values
    # E - U is full - U as a mask, so f(E - U) reads the table backwards; the
    # family is closed under complement, so the masks without the top bit suffice
    low = list(compress(count(), map(eq, map(add, v[:len(v) // 2], reversed(v)), repeat(v[-1]))))
    return low + list(map(xor, reversed(low), repeat(f.ground.full_mask)))


class FaceStructure(Frozen):
    """A face factored as a direct sum of block base polytopes.

    Built, and pickled, from ``ground`` and the maximal tight ``chain`` alone
    (masks rising from 0 to the full mask): ``blocks`` are its steps,
    ``positions`` their bit positions and ``dim`` = n - (number of blocks).
    Block i is the base polytope of f.block_restrict(chain[i], blocks[i]).
    The public queries return one; ``decompose`` reads chains and builds
    one only for B_f itself, at the root.
    """

    __slots__ = ("ground", "chain", "blocks", "positions", "dim")

    def __init__(self, ground, chain):
        blocks = tuple(map(xor, chain, chain[1:]))
        super().__init__(ground, chain, blocks, _chain_positions(chain), ground.n - len(blocks))

    def __reduce__(self):
        return FaceStructure, (self.ground, self.chain)

    @property
    def t(self) -> int:
        return len(self.blocks)

    def restrict_vector(self, x, i: int) -> tuple[int, ...]:
        """Coordinates of x on block i, in block order."""
        return tuple(map(x.__getitem__, self.positions[i]))


def _chain_positions(chain) -> tuple:
    """The bit positions of each step of a rising chain of masks, each in increasing order."""
    return tuple(map(_positions, map(xor, chain, chain[1:])))


def _maximal_chain(tight: list[int], full: int) -> tuple[int, ...]:
    """Greedy maximal chain through a union/intersection-closed family.

    From each set, step to its smallest-bitmask strict tight superset; a
    strict superset always has a larger bitmask value, so the first hit in
    canonical order is inclusionwise minimal, and in a lattice any minimal
    step keeps the chain maximal.  The family is sorted, and a set passed
    over is no superset of the current set, so it is none of any later
    one either: one pass over the family finds every step.
    """
    chain = [0]
    for cand in tight:
        if cand & chain[-1] == chain[-1] != cand:
            chain.append(cand)
    if chain[-1] != full:
        raise UsageError("tight family has no superset step; not a lattice?")
    return tuple(chain)


def face_structure(f: SubmodularFn) -> FaceStructure:
    """Factor B_f itself along a maximal chain of its tight sets."""
    return FaceStructure(f.ground, _maximal_chain(tight_sets(f), f.ground.full_mask))


def dimension(f: SubmodularFn) -> int:
    """dim B_f = n - c, c the number of connected components of f.

    The separators of f, the U with f(U) + f(E - U) = f(E), are the sets
    tight on all of B_f.  For a submodular f they form a Boolean algebra
    whose atoms are f's connected components (Fujishige, *Submodular
    Functions and Optimization*, ch. 3): there are 2^c of them.  U is a
    separator iff E - U is, so the 2^(c-1) without the top element are
    counted, in one pass, and c is the count's bit length.  A maximal tight
    chain has c blocks, so this is ``face_structure(f).dim``, found with no
    chain.  On a table that is not submodular the separators need not form
    such an algebra: a count that is not a power of two raises UsageError,
    and any other count gives n - c, which need not be dim B_f.
    """
    v = f.values
    # E - U is full - U as a mask, so f(E - U) reads the table backwards
    low = sum(map(eq, map(add, v[:len(v) // 2], reversed(v)), repeat(v[-1])))
    if low & (low - 1):
        raise UsageError(f"f is not submodular: it has {2 * low} separators"
                         " f(U) + f(E - U) = f(E), not a power of two")
    return f.ground.n - low.bit_length()


def point_tight_family(f: SubmodularFn, x) -> list[int]:
    """All U with x(U) = f(U), in canonical order (x must lie in B_f)."""
    return list(compress(count(), map(eq, _subset_sums_of(f, x)[1], f.values)))


def _subset_sums_of(f: SubmodularFn, x):
    x = _check_int_vector(x, f.ground.n, "vector")
    return x, subset_sums(x)


def minimal_face_of_point(f: SubmodularFn, x, k: int = 1) -> FaceStructure:
    """The inclusionwise minimal face of k B_f containing x, factored.

    The subsets U tight at x (x(U) = k f(U)) form a union/intersection-closed
    family; a maximal chain inside it yields the face as a direct sum of
    block base polytopes, each scaled by k.  The subset sums of x serve
    both membership and tightness.
    """
    x, sums = _subset_sums_of(f, x)
    _check_int(k, "multiplicity must be a positive integer", 1)
    return FaceStructure(f.ground, _face_chain(x, sums, _times(f.values, k)))


def _face_chain(x, sums, kh) -> tuple[int, ...]:
    """The maximal tight chain of the minimal face of B_kh holding x, kh a scaled table.

    Raises UsageError naming x when x lies outside B_kh.
    """
    if not _in_base(sums, kh):
        raise UsageError(f"point {x} is not in the base polytope")
    return _maximal_chain(list(compress(count(), map(eq, sums, kh))), len(kh) - 1)
