"""Decomposition of integer vectors in k B_f into few integer bases.

Three constructive pieces:

* ``split_into_k_bases``: the integer decomposition property realized by
  repeatedly intersecting B_f with x - (k-1) B_f and taking an integer
  vertex.

* ``merge_direct_sum``: decompositions of blocks on disjoint grounds are
  interleaved along the union of their cumulative-weight breakpoints, so
  t blocks cost only t - 1 extra terms.

* ``decompose``: writes w as a nonnegative integer combination of at most
  dim B_f + 1 integer base vectors.  A flat B_f (dim < |E| - 1) factors
  once, at the root, into a direct sum of smaller base polytopes along a
  maximal chain A_0 < ... < A_t of its tight sets.  No block of a maximal
  tight chain, of B_f or of a face, has a proper tight set U: A_{i-1} | U
  would be tight and lie strictly between two sets of the chain.  So the
  recursion below the root sees only full-dimensional blocks.  It tracks
  the measure dim + |E|, which strictly drops along every edge:

    - one element: the polytope is a point, its level read from the
      parent's table (or from f's own when |E| = 1);
    - otherwise fix the first element e and divide w(e) = k q + r.  When
      r = 0, w lies on the proper face x(e) = q of the polytope capped at
      q, which factors into full-dimensional blocks.  When r > 0, cap f at
      q+1 and at q, pick an integer vertex x' of B_{r f'} intersected with
      w - B_{(k-r) f''}, and recurse on x' and w - x' inside their minimal
      faces; the vertex property makes the two face dimensions sum to at
      most |E| - 2, so the two branch counts total at most dim + 1.

Membership in k B_f and its faces read f's own table, and the vertex step
reads plain value tables, so no scaled, dual or shifted node is built.  A
point's subset sums are built once, where the point is made (x2's as w's
less x1's), and handed as ``sums=`` to the query that reads them.

The recursion builds only a ``DecompositionTrace``.  ``decompose`` and
``replay`` both read the terms off it with ``_terms`` and normalize them
once, in ``WeightedDecomposition.from_terms``.  ``verify`` re-checks a
finished decomposition from scratch, independent of the trace.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub

from .core import Frozen, GroundSet, SubmodularFn, is_submodular, subset_sums
from .core import _check_int, _check_int_vector, _check_seq
from .errors import InvariantViolation, UsageError
from .lp import assert_integral, build_intersection_system, dump_system, find_vertex
from .polytope import (
    FaceStructure,
    dimension,
    face_structure,
    in_base_polytope,
    in_extended_polymatroid,
    minimal_face_of_point,
)

Terms = list[tuple[int, tuple[int, ...]]]


class WeightedDecomposition(Frozen):
    """Normalized multiset of weighted integer points summing to a target.

    Points are distinct and lex-sorted, weights are positive, the weights
    total ``multiplicity`` and the weighted points total ``target``.
    Base-polytope membership of the points is not part of construction;
    ``verify`` checks it against a declared function.
    """

    __slots__ = ("terms", "target", "multiplicity")

    @classmethod
    def from_terms(cls, terms, target, multiplicity: int) -> "WeightedDecomposition":
        """Check each term, merge equal points (summing weights), sort by
        point and check the sums: the one constructor, and the one place
        terms are normalized."""
        _check_int(multiplicity, "multiplicity must be a positive integer", 1)
        target = _check_int_vector(target, None, "target")
        terms = _check_seq(terms, None, "terms", "(weight, point) pairs")
        acc: dict[tuple[int, ...], int] = {}
        for term in terms:
            if not isinstance(term, (tuple, list)) or len(term) != 2:
                raise UsageError(f"a term must be a (weight, point) pair, got {term!r}")
            wt, point = term
            _check_int(wt, "term weight must be a positive integer", 1)
            point = _check_int_vector(point, len(target), "term point")
            acc[point] = acc.get(point, 0) + wt
        if not acc:
            raise UsageError("a decomposition needs at least one term")
        merged = [(wt, point) for point, wt in sorted(acc.items())]
        if sum(acc.values()) != multiplicity:
            raise UsageError("term weights do not sum to the multiplicity")
        for i in range(len(target)):
            if sum(wt * p[i] for wt, p in merged) != target[i]:
                raise UsageError(f"terms do not sum to the target at coordinate {i}")
        return cls(tuple(merged), target, multiplicity)

    @property
    def distinct_count(self) -> int:
        return len(self.terms)


class DecompositionTrace:
    """One node of the recursion tree; the decomposition is read off it.

    ``polybase.instance.trace_dict(f, trace)`` prints it; no node holds a
    function.  A block node (``direct_sum``, ``face_drop``, ``point_face``)
    holds the ``face`` it factors along, one child per block.  ``face_drop``
    and ``split`` fix e = ground[0] and divide w(e) = k q + r: a ``face_drop``
    factors f capped at q, and a ``split``'s parts x1 and x2 are its two
    children's ``w``.  At most ``dim`` + 1 distinct terms: ``dim`` is
    ``len(w) - 1`` but ``face.dim`` at a ``direct_sum`` or ``point_face``.
    """

    __slots__ = ("case", "ground", "w", "k", "children", "face", "dim")

    def __init__(self, case: str, ground: tuple[str, ...], w: tuple[int, ...], k: int,
                 children: list | None = None, face: FaceStructure | None = None,
                 dim: int | None = None):
        self.case = case
        self.ground = ground
        self.w = w
        self.k = k
        self.children = [] if children is None else children
        self.face = face
        self.dim = dim


# ---------------------------------------------------------------------------
# integer decomposition property
# ---------------------------------------------------------------------------

def split_into_k_bases(f: SubmodularFn, x, k: int) -> list[tuple[int, ...]]:
    """Write x in k B_f as an ordered list of k integer points of B_f."""
    x, sums = _require_membership(f, x, k)
    result: list[tuple[int, ...]] = []
    cur = x
    for j in range(k, 1, -1):
        point = _integer_vertex(
            f.ground, f.values, _mirror_values(sums, j - 1, f),
            "empty intersection while splitting; decomposition theory violated",
        )
        result.append(point)
        cur = tuple(map(sub, cur, point))
        sums = subset_sums(cur)
    if not in_base_polytope(f, cur, sums=sums):
        raise InvariantViolation("split residue left the base polytope")
    result.append(cur)
    return result


def _mirror_values(sums, m: int, g: SubmodularFn) -> list[int]:
    """The table of x - m B_g from x's sums: U -> x(U) - m (g(E) - g(E - U))."""
    top = g.values[-1]
    # E - U = full - U, so g(E - U) runs through the table backwards
    return [s - m * (top - v) for s, v in zip(sums, reversed(g.values))]


def _integer_vertex(ground: GroundSet, f_values, g_values, empty: str) -> tuple[int, ...]:
    """An integer vertex of B_f intersected with B_g, read from their value tables."""
    system = build_intersection_system(ground, f_values, g_values)
    vertex = find_vertex(system)
    if vertex is None:
        raise InvariantViolation(empty, dump=dump_system(system))
    return assert_integral(vertex, system)


# ---------------------------------------------------------------------------
# direct-sum merging
# ---------------------------------------------------------------------------

def _interleave(parts: list[Terms], k: int) -> list[tuple[int, tuple]]:
    """Combine per-block term lists along shared weight breakpoints.

    Each part's cumulative weights cut [0, k] into intervals; on each
    interval of the common refinement every part has one active point.
    Returns (interval length, tuple of active points per part).
    """
    prefix_lists = []
    breakpoints = {0, k}
    for terms in parts:
        acc = 0
        prefixes = [0]
        for wt, _ in terms:
            acc += wt
            prefixes.append(acc)
        if acc != k:
            raise UsageError(f"part weights sum to {acc}, expected multiplicity {k}")
        prefix_lists.append(prefixes)
        breakpoints.update(prefixes)
    out = []
    bps = sorted(breakpoints)
    for lo, hi in zip(bps, bps[1:]):
        combo = tuple(
            parts[p][bisect_left(prefix_lists[p], hi) - 1][1]
            for p in range(len(parts))
        )
        out.append((hi - lo, combo))
    return out


def merge_direct_sum(parts: list[WeightedDecomposition]) -> WeightedDecomposition:
    """Merge block decompositions over disjoint grounds by concatenation.

    All parts must share one multiplicity k.  The result has at most
    (sum of part sizes) - (number of parts - 1) distinct terms.
    """
    if not parts:
        raise UsageError("merge_direct_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    k = parts[0].multiplicity
    for part in parts[1:]:
        if part.multiplicity != k:
            raise UsageError(
                f"mismatched multiplicities: {part.multiplicity} vs {k}"
            )
    combined = [
        (wt, sum(combo, ()))
        for wt, combo in _interleave([list(p.terms) for p in parts], k)
    ]
    target = sum((p.target for p in parts), ())
    return WeightedDecomposition.from_terms(combined, target, k)


# ---------------------------------------------------------------------------
# the main recursion
# ---------------------------------------------------------------------------

def decompose(f: SubmodularFn, w, k: int):
    """Decompose w in k B_f into at most dim B_f + 1 integer bases.

    Returns (WeightedDecomposition, DecompositionTrace); the terms are
    read off the trace, whose root ``dim`` is dim B_f.  Raises
    UsageError naming a violated constraint when w is not in k B_f, and
    InvariantViolation (with diagnostics) if an internal guarantee fails.
    """
    w, sums = _require_membership(f, w, k)
    if f.ground.n == 1:
        trace = _leaf(f, 0, 1, w, k, None)
    elif (fs := face_structure(f)).t == 1:
        trace = _decompose_rec(f, w, k, None, sums)
    else:
        trace = _chain_node("direct_sum", f, fs, w, k, fs.dim + f.ground.n, fs.dim)
    return WeightedDecomposition.from_terms(_terms(trace), w, k), trace


def _require_membership(f: SubmodularFn, x, k: int):
    """Check x in k B_f (f submodular first); return x as a tuple and its subset sums."""
    _check_int(k, "multiplicity must be a positive integer", 1)
    x = _check_int_vector(x, f.ground.n, "vector")
    require_submodular(f)
    total = k * f.values[-1]
    if sum(x) != total:
        raise UsageError(f"x(E) = {sum(x)} != {total} = {k} * f(E)")
    sums = subset_sums(x)
    ok, violated = in_extended_polymatroid(f, x, k, sums=sums)
    if not ok:
        names = ",".join(f.ground.names_of(violated))
        raise UsageError(f"violated x({{{names}}}) <= {k * f(violated)}: got {sums[violated]}")
    return x, sums


def require_submodular(f: SubmodularFn) -> None:
    """Raise UsageError naming a violating pair unless f is submodular."""
    ok, pair = is_submodular(f)
    if not ok:
        a, b = (",".join(f.ground.names_of(m)) for m in pair)
        raise UsageError(
            f"f is not submodular: f(A) + f(B) < f(A | B) + f(A & B)"
            f" for A = {{{a}}}, B = {{{b}}}"
        )


def _leaf(f: SubmodularFn, prev: int, block: int, w, k: int, parent_measure):
    """The one-element block after ``prev`` of k B_f: the point k times its level."""
    value = f.values[prev | block] - f.values[prev]
    _check(w[0] == k * value, "leaf target is not k times the level")
    _check_measure(1, parent_measure)
    return DecompositionTrace("leaf", (f.ground.elements[block.bit_length() - 1],), w, k, dim=0)


def _decompose_rec(f: SubmodularFn, w, k: int, parent_measure, sums):
    ground = f.ground
    n = ground.n
    full = ground.full_mask

    # f is full-dimensional and n >= 2 (see the module docstring): fix the first element
    dim = n - 1
    measure = dim + n
    _check_measure(measure, parent_measure)

    e_name = ground.elements[0]
    q, r = divmod(w[0], k)

    if r == 0:
        capped = f.reduce_at(e_name, q)
        _check(capped(full) == f(full), "cap at q changed the level")
        _check(k * capped(1) == w[0], "x(e) = q is not tight for w under the cap")
        face = _face_of(capped, w, k, sums)
        _check(face.chain[1] == 1, "fixed element does not start the tight chain")
        return _chain_node("face_drop", capped, face, w, k, measure, dim)

    # r >= 1: split w across the caps at q+1 and q
    upper = f.reduce_at(e_name, q + 1)
    lower = f.reduce_at(e_name, q)
    _check(upper(full) == f(full), "cap at q+1 changed the level")
    _check(lower(full) == f(full), "cap at q changed the level")
    x1 = _integer_vertex(
        ground, [r * v for v in upper.values], _mirror_values(sums, k - r, lower),
        "empty split intersection; decomposition theory violated",
    )
    x2 = tuple(wi - xi for wi, xi in zip(w, x1))
    _check(x1[0] == r * (q + 1), "x'(e) != r (q+1)")
    _check(x2[0] == (k - r) * q, "x''(e) != (k-r) q")
    sums1 = subset_sums(x1)
    sums2 = list(map(sub, sums, sums1))

    sides = []
    for f_side, x, x_sums, mult in ((upper, x1, sums1, r), (lower, x2, sums2, k - r)):
        face = _face_of(f_side, x, mult, x_sums)
        _check(face.t >= 2, "point face did not factor")
        sides.append(_chain_node("point_face", f_side, face, x, mult, measure, face.dim))
    _check(sides[0].dim + sides[1].dim <= n - 2, "split faces are not complementary")
    return DecompositionTrace("split", ground.elements, w, k, sides, dim=dim)


def _face_of(f_base: SubmodularFn, x, k: int, sums) -> FaceStructure:
    """The minimal face of k B_{f_base} holding x, a point the engine derived.

    Such a point outside k B_{f_base} is a defect, not a usage error.
    """
    try:
        return minimal_face_of_point(f_base, x, k, sums=sums)
    except UsageError as exc:
        raise InvariantViolation(f"derived point left its polytope: {exc}") from exc


def _chain_node(case: str, f_base: SubmodularFn, face: FaceStructure, w, k: int,
                measure, dim: int):
    """The trace node of w in a face of k B_{f_base} factored along its chain.

    A one-element block is a leaf whose level is read from f_base's table.
    Larger blocks are restrictions of the unscaled f_base so that each
    block decomposes at the original multiplicity k.
    """
    children = []
    for i, (prev, block) in enumerate(zip(face.chain, face.blocks)):
        block_w = face.restrict_vector(w, i)
        if len(block_w) == 1:
            children.append(_leaf(f_base, prev, block, block_w, k, measure))
        else:
            block_fn = f_base.block_restrict(prev, block)
            children.append(_decompose_rec(block_fn, block_w, k, measure, subset_sums(block_w)))
    return DecompositionTrace(case, f_base.ground.elements, w, k, children, face, dim)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _check_measure(measure: int, parent) -> None:
    if parent is not None and measure >= parent:
        raise InvariantViolation(
            f"recursion measure did not decrease: {measure} >= {parent}"
        )


def _terms(node: DecompositionTrace) -> Terms:
    """The weighted points of a trace node, at most ``dim`` + 1 of them.

    A split lists x1's terms, then x2's; a block node interleaves its
    blocks' terms and places each point with its face's ``scatter``.  The
    points come out distinct, in strictly decreasing lex order, so no node
    merges or sorts: a split's x1 side has q + 1 at e and its x2 side q;
    an interleave advances at least one block at every breakpoint and
    never goes back, and ``scatter`` keeps each block's coordinates in
    ground order.  Interleaving every block in reverse pairs the same
    points, so the sorted terms equal those of lex-sorted blocks.
    """
    if node.case == "leaf":
        terms = [(node.k, (node.w[0] // node.k,))]
    elif node.case == "split":
        terms = _terms(node.children[0]) + _terms(node.children[1])
    else:
        parts = [_terms(child) for child in node.children]
        terms = [(wt, node.face.scatter(combo)) for wt, combo in _interleave(parts, node.k)]
    if len(terms) > node.dim + 1:
        raise InvariantViolation(
            f"{len(terms)} distinct points exceed the bound dim + 1 = {node.dim + 1}"
        )
    return terms


# ---------------------------------------------------------------------------
# certificate checking and trace replay
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def verify(f: SubmodularFn, dec: WeightedDecomposition):
    """Re-check a decomposition from scratch; returns (ok, failures).

    Independent of any trace: types, arithmetic, distinctness, per-point
    base-polytope membership and the cardinality bound.  A malformed
    certificate is reported, not raised on, but a tuple point that is not
    n integers raises UsageError.  The weight and target sums are
    compared only when every term pairs an integer weight with a point.
    """
    failures: list[str] = []
    k, n, terms, target = dec.multiplicity, f.ground.n, dec.terms, dec.target
    if not _is_int(k) or k < 1:
        failures.append(f"multiplicity {k!r} is not a positive integer")
    summable = isinstance(terms, (tuple, list))
    if not summable:
        failures.append(f"terms {terms!r} are not a tuple or list")
        terms = ()
    elif not terms:
        failures.append("no terms")
    if not isinstance(target, tuple) or len(target) != n or not all(map(_is_int, target)):
        failures.append(f"target {target!r} is not {n} integers")
    total_weight = 0
    sums = [0] * n
    seen = set()
    for term in terms:
        if not isinstance(term, tuple) or len(term) != 2 or not isinstance(term[1], tuple):
            failures.append(f"term {term!r} is not a (weight, point tuple) pair")
            summable = False
            continue
        wt, point = term
        # first, so a point that is not n integers raises UsageError before it is summed
        member = in_base_polytope(f, point)
        if not _is_int(wt):
            failures.append(f"weight {wt!r} is not an integer")
            summable = False
        else:
            if wt <= 0:
                failures.append(f"nonpositive weight {wt}")
            total_weight += wt
            for i, v in enumerate(point):
                sums[i] += wt * v
        if point in seen:
            failures.append(f"duplicate point {point}")
        seen.add(point)
        if not member:
            failures.append(f"point {point} is not in the base polytope")
    if summable and total_weight != k:
        failures.append(f"weight sum mismatch: {total_weight} != {k}")
    if summable and tuple(sums) != target:
        failures.append(f"target sum mismatch: {tuple(sums)} != {target}")
    bound = dimension(f) + 1
    if len(terms) > bound:
        failures.append(f"cardinality bound exceeded: {len(terms)} > dim + 1 = {bound}")
    return not failures, failures


def replay(trace: DecompositionTrace) -> WeightedDecomposition:
    """Rebuild the decomposition from a trace by pure arithmetic.

    No function evaluations and no LP solves.  Every node is first checked
    against its place in the tree and its children: its case must be one
    the recursion builds there, its ``dim`` must be the one that case
    records, and a split's first child is x1, at multiplicity r.  By
    induction each node's terms sum to its ``w`` at weight ``k``; the terms
    are then read off the trace as ``decompose`` reads them, bound
    included.  A tampered trace raises InvariantViolation or UsageError.
    """
    _check_node(trace)
    return WeightedDecomposition.from_terms(_terms(trace), trace.w, trace.k)


# the cases a node may take: at the root, below a block node, below a split
_ROOT_CASES = ("leaf", "direct_sum", "face_drop", "split")
_BLOCK_CASES = ("leaf", "face_drop", "split")


def _check_node(node: DecompositionTrace, cases=_ROOT_CASES) -> None:
    # type the fields the arithmetic below reads, the children's included
    _check(isinstance(node.children, list)
           and all(isinstance(child, DecompositionTrace) for child in node.children),
           "trace node children are not a list of trace nodes")
    for typed in (node, *node.children):
        _check(isinstance(typed.w, tuple) and all(map(_is_int, typed.w)),
               f"trace node w {typed.w!r} is not a tuple of integers")
        _check(_is_int(typed.k) and typed.k > 0,
               f"trace node k {typed.k!r} is not a positive integer")
    _check(node.case in cases, f"trace case {node.case!r} where one of {cases} belongs")
    _check(_is_int(node.dim), f"trace node dim {node.dim!r} is not an integer")
    dim = len(node.w) - 1
    if node.case == "leaf":
        _check(len(node.w) == 1 and node.w[0] % node.k == 0, "corrupt leaf in trace")
    elif node.case == "split":
        _check(len(node.children) == 2, "split node needs two children")
        left, right = node.children
        _check(len(left.w) == len(right.w) == len(node.w)
               and tuple(a + b for a, b in zip(left.w, right.w)) == node.w,
               "split parts do not sum to the target")
        _check(left.k + right.k == node.k, "split multiplicities mismatch")
        # the left child is x1, the vertex at multiplicity r with x1(e) = r (q+1)
        q, r = divmod(node.w[0], node.k)
        _check(left.k == r and left.w[0] == r * (q + 1), "split children out of order")
        cases = ("point_face",)
    else:
        face = node.face
        _check(isinstance(face, FaceStructure) and face.ground.n == len(node.w)
               and len(node.children) == face.t, "corrupt block node")
        for i, child in enumerate(node.children):
            _check(child.k == node.k and child.w == face.restrict_vector(node.w, i),
                   "block child does not match its block of the target")
        dim = dim if node.case == "face_drop" else face.dim
        cases = _BLOCK_CASES
    _check(node.dim == dim, f"{node.case} node dim {node.dim} is not {dim}")
    for child in node.children:
        _check_node(child, cases)
