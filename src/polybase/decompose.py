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

Below the root the recursion runs on value tables alone: a node is
(table, names, w, k, sums), a cap is one table, a block's table is one
gather (``core._block_values``) and a face is its tight chain of masks, so
no function node, ``FaceStructure`` or ``GroundSet`` is built there, except
the ``GroundSet`` a split hands its vertex step.  ``_cap_first`` caps e by
one sweep of element 0, and only when c < f({e}).  That is exact: the root
passed ``require_submodular``, caps and block restrictions keep a table
submodular, and there no other cap can bind.

Membership in k B_f and its faces read f's own table, and the vertex step
reads plain value tables, so no scaled, dual or shifted node is built.
``decompose`` and ``split_into_k_bases`` check their arguments once, on
entry; every point below is an int tuple by construction.  A point's
subset sums are built once, where the point is made (x2's as w's less
x1's), and handed to the polytope kernel that reads them
(``_first_violation``, ``_in_base``, ``_face_chain``), with no second
check of the point or of its sums' length.

The recursion builds only a ``DecompositionTrace``.  ``decompose`` and
``replay`` both read the terms off it with ``_terms`` and normalize them
once, in ``WeightedDecomposition.from_terms``.  ``verify`` re-checks a
finished decomposition from scratch, independent of the trace.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter, sub, xor

from .core import Frozen, GroundSet, SubmodularFn, is_submodular, subset_sums
from .core import _block_values, _cap, _check_int, _check_int_vector, _check_seq, _positions
from .errors import InvariantViolation, UsageError
from .lp import assert_integral, build_intersection_system, dump_system, find_vertex
from .polytope import dimension, face_structure, in_base_polytope
from .polytope import _chain_positions, _face_chain, _first_violation, _in_base
# the engine calls their kernels; bench/tracing.py still wraps these bindings
from .polytope import in_extended_polymatroid, minimal_face_of_point  # noqa: F401

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

    A node holds no function and nothing it can derive: only the root holds
    ``ground`` names, and only a block node (``direct_sum``, ``face_drop``,
    ``point_face``) the ``chain`` it factors along, one child per step.  A
    ``face_drop`` or ``split`` divides w(e) = k q + r at its first element e:
    a ``face_drop`` factors f capped at q, and a ``split``'s two children's
    ``w`` are its parts x1 and x2.  ``instance.trace_dict`` prints it.
    """

    __slots__ = ("case", "ground", "w", "k", "children", "chain")

    def __init__(self, case: str, ground: tuple[str, ...] | None, w: tuple[int, ...], k: int,
                 children: list | None = None, chain: tuple[int, ...] | None = None):
        self.case = case
        self.ground = ground
        self.w = w
        self.k = k
        self.children = [] if children is None else children
        self.chain = chain

    @property
    def dim(self) -> int:
        """At most dim + 1 terms: ``len(w) - 1``, but the face's at a direct_sum or point_face."""
        return len(self.w) - (len(self.chain) - 1 if self.case in ("direct_sum", "point_face")
                              else 1)


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
            f.ground, f.values, _mirror_values(sums, j - 1, f.values),
            "empty intersection while splitting; decomposition theory violated",
        )
        result.append(point)
        cur = tuple(map(sub, cur, point))
        sums = subset_sums(cur)
    if not _in_base(sums, f.values):
        raise InvariantViolation("split residue left the base polytope")
    result.append(cur)
    return result


def _mirror_values(sums, m: int, g_values) -> list[int]:
    """The table of x - m B_g from x's sums: U -> x(U) - m (g(E) - g(E - U))."""
    top = g_values[-1]
    # E - U = full - U, so g(E - U) runs through the table backwards
    return [s - m * (top - v) for s, v in zip(sums, reversed(g_values))]


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
            raise UsageError(f"mismatched multiplicities: {part.multiplicity} vs {k}")
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
    values, names = f.values, f.ground.elements
    if f.ground.n == 1:
        trace = _leaf(values, 0, 1, w, k, None)
    elif (fs := face_structure(f)).t == 1:
        trace = _decompose_rec(values, names, w, k, None, sums)
    else:
        trace = _chain_node("direct_sum", values, names, fs.chain, w, k, fs.dim + f.ground.n)
    trace = DecompositionTrace(trace.case, names, w, k, trace.children, trace.chain)
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
    violated = _first_violation(sums, f.values, k)
    if violated is not None:
        names = ",".join(f.ground.names_of(violated))
        raise UsageError(f"violated x({{{names}}}) <= {k * f(violated)}: got {sums[violated]}")
    return x, sums


def require_submodular(f: SubmodularFn) -> None:
    """Raise UsageError naming a violating pair unless f is submodular."""
    ok, pair = is_submodular(f)
    if not ok:
        a, b = (",".join(f.ground.names_of(m)) for m in pair)
        raise UsageError("f is not submodular: f(A) + f(B) < f(A | B) + f(A & B)"
                         f" for A = {{{a}}}, B = {{{b}}}")


def _leaf(values, prev: int, cur: int, w, k: int, parent_measure):
    """The one-element block cur - prev of k B_h, h's table ``values``: k times its level."""
    _check(w[0] == k * (values[cur] - values[prev]), "leaf target is not k times the level")
    _check_measure(1, parent_measure)
    return DecompositionTrace("leaf", None, w, k)


def _decompose_rec(values, names, w, k: int, parent_measure, sums):
    """The trace node of w in k B_h, h a full-dimensional table ``values`` on ``names``."""
    n = len(names)
    top = values[-1]

    # h is full-dimensional and n >= 2 (see the module docstring): fix the first element
    measure = 2 * n - 1  # dim + n
    _check_measure(measure, parent_measure)

    q, r = divmod(w[0], k)

    if r == 0:
        capped = _cap_first(values, q)
        _check(capped[-1] == top, "cap at q changed the level")
        _check(k * capped[1] == w[0], "x(e) = q is not tight for w under the cap")
        chain = _face_of(capped, w, k, sums)
        _check(chain[1] == 1, "fixed element does not start the tight chain")
        return _chain_node("face_drop", capped, names, chain, w, k, measure)

    # r >= 1: split w across the caps at q+1 and q
    upper = _cap_first(values, q + 1)
    lower = _cap_first(values, q)
    _check(upper[-1] == top, "cap at q+1 changed the level")
    _check(lower[-1] == top, "cap at q changed the level")
    x1 = _integer_vertex(
        GroundSet(names, n), [r * v for v in upper], _mirror_values(sums, k - r, lower),
        "empty split intersection; decomposition theory violated",
    )
    x2 = tuple(wi - xi for wi, xi in zip(w, x1))
    _check(x1[0] == r * (q + 1), "x'(e) != r (q+1)")
    _check(x2[0] == (k - r) * q, "x''(e) != (k-r) q")
    sums1 = subset_sums(x1)
    sums2 = list(map(sub, sums, sums1))

    sides = []
    for side, x, x_sums, mult in ((upper, x1, sums1, r), (lower, x2, sums2, k - r)):
        chain = _face_of(side, x, mult, x_sums)
        _check(len(chain) > 2, "point face did not factor")
        sides.append(_chain_node("point_face", side, names, chain, x, mult, measure))
    _check(sides[0].dim + sides[1].dim <= n - 2, "split faces are not complementary")
    return DecompositionTrace("split", None, w, k, sides)


def _cap_first(values, c: int):
    """The table of ``h.reduce_at(ground[0], c)`` for a submodular h (see the module docstring)."""
    if c >= values[1]:
        return values
    h = list(values)
    _cap(h, 0, c)
    return h


def _face_of(values, x, k: int, sums) -> tuple[int, ...]:
    """The tight chain of the minimal face of k B_h (h's table ``values``) holding x.

    x is a point the engine derived, so x outside k B_h is a defect, not a usage error.
    """
    try:
        return _face_chain(x, sums, values, k)
    except UsageError as exc:
        raise InvariantViolation(f"derived point left its polytope: {exc}") from exc


def _chain_node(case: str, values, names, chain, w, k: int, measure):
    """The trace node of w in a face of k B_h (h's table ``values``) factored along ``chain``.

    A one-element block is a leaf whose level is read from h's table.
    A larger block recurses on its gathered table, the unscaled
    h(A_prev + U) - h(A_prev), so that it decomposes at the original
    multiplicity k.
    """
    children = []
    for prev, cur in zip(chain, chain[1:]):
        positions = _positions(prev ^ cur)
        block_w = tuple(map(w.__getitem__, positions))
        if len(positions) == 1:
            children.append(_leaf(values, prev, cur, block_w, k, measure))
        else:
            block_names = tuple(map(names.__getitem__, positions))
            children.append(_decompose_rec(_block_values(values, prev, positions), block_names,
                                           block_w, k, measure, subset_sums(block_w)))
    return DecompositionTrace(case, None, w, k, children, chain)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _check_measure(measure: int, parent) -> None:
    if parent is not None and measure >= parent:
        raise InvariantViolation(f"recursion measure did not decrease: {measure} >= {parent}")


def _terms(node: DecompositionTrace) -> Terms:
    """The weighted points of a trace node, at most ``dim`` + 1 of them.

    A split lists x1's terms, then x2's; a block node interleaves its
    blocks' terms and places each block's coordinates at its chain step's
    positions.  The points come out distinct, in strictly decreasing lex
    order, so no node merges or sorts: a split's x1 side has q + 1 at e and
    its x2 side q; an interleave advances at least one block at every
    breakpoint and never goes back, and each block keeps its coordinates in
    ground order.  Interleaving every block in reverse pairs the same
    points, so the sorted terms equal those of lex-sorted blocks.
    """
    if node.case == "leaf":
        terms = [(node.k, (node.w[0] // node.k,))]
    elif node.case == "split":
        terms = _terms(node.children[0]) + _terms(node.children[1])
    else:
        parts = [_terms(child) for child in node.children]
        order = sum(_chain_positions(node.chain), ())
        place = itemgetter(*sorted(range(len(order)), key=order.__getitem__))  # n >= 2: a tuple
        terms = [(wt, place(sum(combo, ()))) for wt, combo in _interleave(parts, node.k)]
    if len(terms) > node.dim + 1:
        raise InvariantViolation(f"{len(terms)} distinct points exceed the bound dim + 1 = "
                                 f"{node.dim + 1}")
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

    No function evaluations and no LP solves.  The root's ``ground`` must be
    ``len(w)`` distinct names, and each node's case one the recursion builds
    there; a split's parts sum to its ``w``, x1 first; a block node's chain
    rises strictly from 0 to its full mask, one child per step holding that
    block of ``w``.  So each node's terms sum to its ``w`` at weight ``k``;
    they are read off as ``decompose`` reads them, bound included.  A
    tampered trace raises InvariantViolation or UsageError.
    """
    _check_node(trace)
    names = trace.ground
    _check(isinstance(names, tuple) and all(isinstance(name, str) for name in names)
           and len(set(names)) == len(names) == len(trace.w),
           f"trace ground {names!r} is not {len(trace.w)} distinct names")
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
        _check(isinstance(typed.w, tuple) and typed.w and all(map(_is_int, typed.w)),
               f"trace node w {typed.w!r} is not a nonempty tuple of integers")
        _check(_is_int(typed.k) and typed.k > 0,
               f"trace node k {typed.k!r} is not a positive integer")
    _check(node.case in cases, f"trace case {node.case!r} where one of {cases} belongs")
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
        chain, full = node.chain, (1 << len(node.w)) - 1
        _check(isinstance(chain, tuple) and len(chain) == len(node.children) + 1
               and all(map(_is_int, chain)) and chain[0] == 0 and chain[-1] == full
               and all(a & b == a != b for a, b in zip(chain, chain[1:])), f"corrupt block node:"
               f" chain {chain!r} is not {len(node.children)} strict steps from 0 to {full}")
        # e starts a face_drop's chain; B_f's chain adds its components in rising order
        _check(node.case != "face_drop" or chain[1] == 1 and node.w[0] % node.k == 0,
               "face_drop node does not drop the face of its first element")
        blocks = list(map(xor, chain, chain[1:]))
        _check(node.case != "direct_sum" or blocks == sorted(blocks),
               "direct_sum blocks are not in rising order")
        for child, block in zip(node.children, _chain_positions(chain)):
            _check(child.k == node.k and child.w == tuple(map(node.w.__getitem__, block)),
                   "block child does not match its block of the target")
        cases = _BLOCK_CASES
    for child in node.children:
        _check_node(child, cases)
