"""Queries on extended polymatroids EP_f and base polytopes B_f.

Membership and tightness are decided by exhaustive subset checks (the
ground sets are small by contract).  Tightness of a subset U for the whole
base polytope uses the closed-form criterion f(U) + f(E-U) = f(E), which
equals the definitional "x(U) = f(U) for every point" because the minimum
of x(U) over B_f is f(E) - f(E-U), attained by a greedy vertex that fills
E-U first.  The test suite validates this against vertex enumeration.
"""

from __future__ import annotations

from .core import Frozen, GroundSet, SubmodularFn, bits, subset_sums, vector_sum
from .errors import UsageError


def in_extended_polymatroid(f: SubmodularFn, x):
    """Check x(U) <= f(U) for all U.

    Returns (True, None) or (False, U) with the first violating subset
    mask in canonical order.
    """
    x = tuple(x)
    if len(x) != f.ground.n:
        raise UsageError(f"vector length {len(x)} != ground size {f.ground.n}")
    for mask, (s, v) in enumerate(zip(subset_sums(x), f.values)):
        if s > v:
            return False, mask
    return True, None


def in_base_polytope(f: SubmodularFn, x) -> bool:
    """Membership in B_f: extended-polymatroid membership with x(E) = f(E)."""
    x = tuple(x)
    full = f.ground.full_mask
    if vector_sum(x, full) != f(full):
        return False
    ok, _ = in_extended_polymatroid(f, x)
    return ok


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
    if order is None:
        order = range(n)
    order = tuple(order)
    if sorted(order) != list(range(n)):
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
    fe = v[-1]
    # E - U is full - U as a mask, so f(E - U) reads the table backwards
    return [m for m, (a, b) in enumerate(zip(v, reversed(v))) if a + b == fe]


class FaceStructure(Frozen):
    """A face factored as a direct sum of block base polytopes.

    chain is the maximal tight chain (masks, starting at 0 and ending at
    the full mask); blocks are the consecutive differences; block i is
    the base polytope of f.block_restrict(chain[i], blocks[i]);
    dim = n - (number of blocks).
    """

    __slots__ = ("ground", "chain", "blocks", "dim")

    def __init__(
        self,
        ground: GroundSet,
        chain: tuple[int, ...],
        blocks: tuple[int, ...],
        dim: int,
    ):
        self._freeze(ground, chain, blocks, dim)

    @property
    def t(self) -> int:
        return len(self.blocks)

    def block_positions(self, i: int) -> tuple[int, ...]:
        return tuple(bits(self.blocks[i]))

    def restrict_vector(self, x, i: int) -> tuple[int, ...]:
        """Coordinates of x on block i, in block order."""
        return tuple(x[p] for p in self.block_positions(i))

    def scatter(self, parts) -> tuple[int, ...]:
        """Inverse of restrict_vector over all blocks."""
        out = [0] * self.ground.n
        for i, part in enumerate(parts):
            for p, v in zip(self.block_positions(i), part):
                out[p] = v
        return tuple(out)


def _maximal_chain(tight: list[int], full: int) -> tuple[int, ...]:
    """Greedy maximal chain through a union/intersection-closed family.

    From each set, step to its smallest-bitmask strict tight superset; a
    strict superset always has a larger bitmask value, so the first hit in
    canonical order is inclusionwise minimal, and in a lattice any minimal
    step keeps the chain maximal.
    """
    chain = [0]
    cur = 0
    while cur != full:
        for cand in tight:
            if cand != cur and cand & cur == cur:
                chain.append(cand)
                cur = cand
                break
        else:
            raise UsageError("tight family has no superset step; not a lattice?")
    return tuple(chain)


def _structure_from_chain(f: SubmodularFn, chain) -> FaceStructure:
    blocks = tuple(cur ^ prev for prev, cur in zip(chain, chain[1:]))
    return FaceStructure(
        ground=f.ground,
        chain=tuple(chain),
        blocks=blocks,
        dim=f.ground.n - len(blocks),
    )


def face_structure(f: SubmodularFn) -> FaceStructure:
    """Factor B_f itself along a maximal chain of its tight sets."""
    chain = _maximal_chain(tight_sets(f), f.ground.full_mask)
    return _structure_from_chain(f, chain)


def dimension(f: SubmodularFn) -> int:
    """dim B_f = n - (length of a maximal tight chain)."""
    chain = _maximal_chain(tight_sets(f), f.ground.full_mask)
    return f.ground.n - (len(chain) - 1)


def point_tight_family(f: SubmodularFn, x) -> list[int]:
    """All U with x(U) = f(U), in canonical order (x must lie in B_f)."""
    x = tuple(x)
    if len(x) != f.ground.n:
        raise UsageError(f"vector length {len(x)} != ground size {f.ground.n}")
    sums = subset_sums(x)
    return [m for m, (s, v) in enumerate(zip(sums, f.values)) if s == v]


def minimal_face_of_point(f: SubmodularFn, x) -> FaceStructure:
    """The inclusionwise minimal face of B_f containing x, factored.

    The subsets tight at x form a union/intersection-closed family; a
    maximal chain inside it yields the face as a direct sum of block base
    polytopes, with x restricted to each block lying in that block's
    polytope.
    """
    x = tuple(x)
    if not in_base_polytope(f, x):
        raise UsageError(f"point {x} is not in the base polytope")
    chain = _maximal_chain(point_tight_family(f, x), f.ground.full_mask)
    return _structure_from_chain(f, chain)
