"""Queries on extended polymatroids EP_f and base polytopes B_f.

Membership and tightness are decided by exhaustive subset checks (the
ground sets are small by contract); membership and the sets tight at a
point take one C-level ``map`` pass over the subset sums x(U) and the
value table.  Tightness of a subset U for the whole base polytope uses
the closed-form criterion f(U) + f(E-U) = f(E), which equals the
definitional "x(U) = f(U) for every point" because the minimum of x(U)
over B_f is f(E) - f(E-U), attained by a greedy vertex that fills E-U
first.  The test suite validates this against vertex enumeration.

Membership and faces of k B_f = B_{kf} read f's own table, scaled by k
once per query; k must be a positive int, not a bool, and x a sequence of
n ints.  A query builds x's subset sums unless the caller, as
``decompose`` does, hands in the sums it built with x.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import add, eq, gt, indexOf, le, mul, xor

from .core import Frozen, SubmodularFn, _check_int, _check_int_vector, _check_seq, bits
from .core import subset_sums
from .errors import UsageError


def in_extended_polymatroid(f: SubmodularFn, x, k: int = 1, *, sums=None):
    """Check x(U) <= k f(U) for all U: membership in k EP_f.

    Returns (True, None) or (False, U) with the first violating subset
    mask in canonical order.  ``sums``, if given, must be subset_sums(x);
    only its length is checked.
    """
    sums = _subset_sums_of(f, x, sums)[1]
    kf = _times(f.values, k)
    if all(map(le, sums, kf)):
        return True, None
    return False, indexOf(map(gt, sums, kf), True)


def in_base_polytope(f: SubmodularFn, x, *, sums=None) -> bool:
    """Membership in B_f: EP_f membership with x(E) = f(E), ``sums`` as there."""
    return _in_base(_subset_sums_of(f, x, sums)[1], f.values)


def _in_base(sums, values) -> bool:
    return sums[-1] == values[-1] and all(map(le, sums, values))


def _times(values, k: int):
    """k times a value table; the table itself when k = 1."""
    _check_int(k, "multiplicity must be a positive integer", 1)
    return values if k == 1 else list(map(mul, values, repeat(k)))


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

    chain is the maximal tight chain (masks, starting at 0 and ending at
    the full mask); blocks are the consecutive differences, positions
    their bit positions; block i is the base polytope of
    f.block_restrict(chain[i], blocks[i]); dim = n - (number of blocks).
    """

    __slots__ = ("ground", "chain", "blocks", "dim", "positions")

    @property
    def t(self) -> int:
        return len(self.blocks)

    def restrict_vector(self, x, i: int) -> tuple[int, ...]:
        """Coordinates of x on block i, in block order."""
        return tuple(map(x.__getitem__, self.positions[i]))

    def scatter(self, parts) -> tuple[int, ...]:
        """Inverse of restrict_vector over all blocks."""
        out = [0] * self.ground.n
        for positions, part in zip(self.positions, parts):
            for p, v in zip(positions, part):
                out[p] = v
        return tuple(out)


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


def _structure_from_chain(f: SubmodularFn, chain) -> FaceStructure:
    blocks = tuple(cur ^ prev for prev, cur in zip(chain, chain[1:]))
    positions = tuple(tuple(bits(b)) for b in blocks)
    return FaceStructure(f.ground, tuple(chain), blocks, f.ground.n - len(blocks), positions)


def face_structure(f: SubmodularFn) -> FaceStructure:
    """Factor B_f itself along a maximal chain of its tight sets."""
    return _structure_from_chain(f, _tight_chain(f))


def dimension(f: SubmodularFn) -> int:
    """dim B_f = n - (number of blocks of a maximal tight chain)."""
    return f.ground.n + 1 - len(_tight_chain(f))


def _tight_chain(f: SubmodularFn) -> tuple:
    return _maximal_chain(tight_sets(f), f.ground.full_mask)


def point_tight_family(f: SubmodularFn, x) -> list[int]:
    """All U with x(U) = f(U), in canonical order (x must lie in B_f)."""
    return list(compress(count(), map(eq, _subset_sums_of(f, x)[1], f.values)))


def _subset_sums_of(f: SubmodularFn, x, sums=None):
    if sums is not None and len(sums) != len(f.values):
        raise UsageError(f"got {len(sums)} subset sums for {len(f.values)} subsets")
    x = _check_int_vector(x, f.ground.n, "vector")
    return x, subset_sums(x) if sums is None else sums


def minimal_face_of_point(f: SubmodularFn, x, k: int = 1, *, sums=None) -> FaceStructure:
    """The inclusionwise minimal face of k B_f containing x, factored.

    The subsets U tight at x (x(U) = k f(U)) form a union/intersection-closed
    family; a maximal chain inside it yields the face as a direct sum of
    block base polytopes, each scaled by k.  The subset sums of x serve
    both membership and tightness; ``sums`` is as for in_extended_polymatroid.
    """
    x, sums = _subset_sums_of(f, x, sums)
    kf = _times(f.values, k)
    if not _in_base(sums, kf):
        raise UsageError(f"point {x} is not in the base polytope")
    tight = compress(count(), map(eq, sums, kf))
    return _structure_from_chain(f, _maximal_chain(list(tight), f.ground.full_mask))
