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
  recursion below the root sees only full-dimensional blocks.  It ends
  because dim + |E| drops along every edge, checked where each edge is made:
  every chain rises strictly from 0 to its node's set (``_chain_node``), a
  ``face_drop``'s starts with {e}, and a point face's and B_f's have two or
  more blocks (``_decompose_rec``, ``decompose``):

    - one element: the polytope is a point, its level read from the
      parent's table (or from k f's when |E| = 1);
    - otherwise fix the first element e and divide w(e) = k q + r.  When
      r = 0, w lies on the proper face x(e) = q of the polytope capped at
      q, which factors into full-dimensional blocks.  When r > 0, cap f at
      q+1 and at q, pick an integer vertex x' of B_{r f'} intersected with
      w - B_{(k-r) f''}, and recurse on x' and w - x' inside their minimal
      faces; the vertex property makes the two face dimensions sum to at
      most |E| - 2, so the two branch counts total at most dim + 1.

Below the root the recursion runs on value tables alone: a node is
(kh, names, w, k, sums), kh its table already scaled by k, a cap is one
table, a block's table is one gather (``core._block_values``) and a face is
its tight chain of masks, so no function node, ``FaceStructure`` or
``GroundSet`` is built there, except the ``GroundSet`` a split hands its
vertex step.  The root scales f once, for its membership test, and every
table below is derived from that one: capping at k c and gathering a block
commute with scaling by k.  A split builds r upper and (k - r) lower once
each, exactly, from its k-scaled caps, and hands them to the vertex step
and to its two face queries; its children carry them.  ``_cap_first``
caps e by one sweep of element 0, and only when c < h({e}).  That is
exact: the root passed ``require_submodular``, caps and block restrictions
keep a table submodular, and there no other cap can bind.

A one-element step of a chain stays in its parent's loop: its level is
checked there and it becomes a leaf node, with no child recursion, and
``_lay_out`` lays its segment in the parent's loop too.

Membership in k B_f and its faces read scaled value tables, and so does
the vertex step, so no scaled, dual or shifted node is built.
``decompose`` and ``split_into_k_bases`` check their arguments once, on
entry; every point below is an int tuple by construction.  A point's
subset sums are built once, where the point is made (x2's as w's less
x1's), and handed to the polytope kernel that reads them
(``_first_violation``, ``_in_base``, ``_face_chain``), with no second
check of the point or of its sums' length.

The recursion builds only a ``DecompositionTrace``.  ``decompose`` and
``replay`` both read the terms off it in one walk, ``_terms``, and
normalize them once, in ``WeightedDecomposition.from_terms``.
``verify`` re-checks a finished decomposition from scratch, independent
of the trace.
"""

from __future__ import annotations

from operator import sub, xor

from .core import Frozen, GroundSet, SubmodularFn, is_submodular, subset_sums
from .core import _block_values, _cap, _check_int, _check_int_vector, _check_seq, _positions
from .errors import InvariantViolation, UsageError
from .lp import assert_integral, build_intersection_system, dump_system, find_vertex
from .polytope import dimension, face_structure, in_base_polytope
from .polytope import _chain_positions, _face_chain, _first_violation, _in_base, _times
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
    x, sums, _ = _require_membership(f, x, k)
    result: list[tuple[int, ...]] = []
    cur = x
    for j in range(k, 1, -1):
        point = _integer_vertex(
            f.ground, f.values, _mirror_values(sums, _times(f.values, j - 1)),
            "empty intersection while splitting; decomposition theory violated",
        )
        result.append(point)
        cur = tuple(map(sub, cur, point))
        sums = subset_sums(cur)
    if not _in_base(sums, f.values):
        raise InvariantViolation("split residue left the base polytope")
    result.append(cur)
    return result


def _mirror_values(sums, mg) -> list[int]:
    """The table of x - B_mg from x's sums and mg's table: U -> x(U) - mg(E) + mg(E - U)."""
    top = mg[-1]
    # E - U = full - U, so mg(E - U) runs through the table backwards
    return [s - top + v for s, v in zip(sums, reversed(mg))]


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

def _interleave(segments, cuts, n: int, k: int) -> Terms:
    """Lay segments along shared breakpoints ``cuts`` of the weight axis [0, k).

    A segment (coord, lo, hi, value) holds coordinate ``coord`` of an
    n-vector at ``value`` on [lo, hi).  Each point is written once; returns
    (interval length, point) per interval, in order along the axis.
    """
    bps = sorted({0, k, *cuts})
    at = {b: i for i, b in enumerate(bps)}
    columns = [[None] * (len(bps) - 1) for _ in range(n)]
    for coord, lo, hi, value in segments:
        a, b = at[lo], at[hi]
        columns[coord][a:b] = [value] * (b - a)
    return list(zip(map(sub, bps[1:], bps), zip(*columns)))


def merge_direct_sum(parts: list[WeightedDecomposition]) -> WeightedDecomposition:
    """Merge block decompositions over disjoint grounds by concatenation.

    All parts must share one multiplicity k, and each is checked as
    ``WeightedDecomposition.from_terms`` checks its terms.  The result, of
    one part too, comes from ``from_terms``, and has at most (sum of part
    sizes) - (number of parts - 1) distinct terms.
    """
    if not parts:
        raise UsageError("merge_direct_sum needs at least one part")
    k = parts[0].multiplicity
    segments, cuts, target = [], set(), ()
    for part in parts:
        if part.multiplicity != k:
            raise UsageError(f"mismatched multiplicities: {part.multiplicity} vs {k}")
        part = WeightedDecomposition.from_terms(part.terms, part.target, k)
        lo = 0
        for wt, point in part.terms:
            segments += [(len(target) + i, lo, lo + wt, v) for i, v in enumerate(point)]
            lo += wt
            cuts.add(lo)
        target += part.target
    return WeightedDecomposition.from_terms(_interleave(segments, cuts, len(target), k), target, k)


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
    w, sums, kf = _require_membership(f, w, k)
    names = f.ground.elements
    if f.ground.n == 1:
        trace = _leaf(kf, 0, 1, w[0], k)
    elif (fs := face_structure(f)).t == 1:
        trace = _decompose_rec(kf, names, w, k, sums)
    else:
        trace = _chain_node("direct_sum", kf, names, fs.chain, w, k)
    trace = DecompositionTrace(trace.case, names, w, k, trace.children, trace.chain)
    return WeightedDecomposition.from_terms(_terms(trace), w, k), trace


def _require_membership(f: SubmodularFn, x, k: int):
    """Check x in k B_f (f submodular first); return x as a tuple, its subset sums and k f's table."""
    _check_int(k, "multiplicity must be a positive integer", 1)
    x = _check_int_vector(x, f.ground.n, "vector")
    require_submodular(f)
    total = k * f.values[-1]
    if sum(x) != total:
        raise UsageError(f"x(E) = {sum(x)} != {total} = {k} * f(E)")
    sums = subset_sums(x)
    kf = _times(f.values, k)
    violated = _first_violation(sums, kf)
    if violated is not None:
        names = ",".join(f.ground.names_of(violated))
        raise UsageError(f"violated x({{{names}}}) <= {kf[violated]}: got {sums[violated]}")
    return x, sums, kf


def require_submodular(f: SubmodularFn) -> None:
    """Raise UsageError naming a violating pair unless f is submodular."""
    ok, pair = is_submodular(f)
    if not ok:
        a, b = (",".join(f.ground.names_of(m)) for m in pair)
        raise UsageError("f is not submodular: f(A) + f(B) < f(A | B) + f(A & B)"
                         f" for A = {{{a}}}, B = {{{b}}}")


def _leaf(kh, prev: int, cur: int, we: int, k: int):
    """The leaf of the one-element block cur - prev of B_kh, whose coordinate ``we`` is
    kh's level there: k times h's.  The engine's one leaf builder, the root's included."""
    _check(we == kh[cur] - kh[prev], "leaf target is not k times the level")
    return DecompositionTrace("leaf", None, (we,), k)


def _decompose_rec(kh, names, w, k: int, sums):
    """The trace node of w in B_kh, kh = k h for h a full-dimensional table on ``names``."""
    n = len(names)
    top = kh[-1]

    # h is full-dimensional and n >= 2 (see the module docstring): fix the first element
    q, r = divmod(w[0], k)

    if r == 0:
        capped = _cap_first(kh, k * q)
        _check(capped[-1] == top, "cap at q changed the level")
        _check(capped[1] == w[0], "x(e) = q is not tight for w under the cap")
        chain = _face_of(capped, w, sums)
        _check(chain[1:2] == (1,), "fixed element does not start the tight chain")
        return _chain_node("face_drop", capped, names, chain, w, k)

    # r >= 1: split w across the caps at q+1 and q, as r upper and (k-r) lower
    upper = _cap_first(kh, k * (q + 1))
    lower = _cap_first(kh, k * q)
    _check(upper[-1] == top, "cap at q+1 changed the level")
    _check(lower[-1] == top, "cap at q changed the level")
    upper = [v // k * r for v in upper]
    lower = [v // k * (k - r) for v in lower]
    x1 = _integer_vertex(
        GroundSet(names, n), upper, _mirror_values(sums, lower),
        "empty split intersection; decomposition theory violated",
    )
    x2 = tuple(wi - xi for wi, xi in zip(w, x1))
    _check(x1[0] == r * (q + 1), "x'(e) != r (q+1)")
    sums1 = subset_sums(x1)
    sums2 = list(map(sub, sums, sums1))

    sides = []
    for side, x, x_sums, mult in ((upper, x1, sums1, r), (lower, x2, sums2, k - r)):
        chain = _face_of(side, x, x_sums)
        _check(len(chain) > 2, "point face did not factor")
        sides.append(_chain_node("point_face", side, names, chain, x, mult))
    _check(sides[0].dim + sides[1].dim <= n - 2, "split faces are not complementary")
    return DecompositionTrace("split", None, w, k, sides)


def _cap_first(kh, kc: int):
    """The table of ``h.reduce_at(ground[0], c)`` scaled by k, from kh = k h and kc = k c,
    for a submodular h (see the module docstring)."""
    if kc >= kh[1]:
        return kh
    h = list(kh)
    _cap(h, 0, kc)
    return h


def _face_of(kh, x, sums) -> tuple[int, ...]:
    """The tight chain of the minimal face of B_kh holding x, kh a scaled table.

    x is a point the engine derived, so x outside B_kh is a defect, not a usage error.
    """
    try:
        return _face_chain(x, sums, kh)
    except UsageError as exc:
        raise InvariantViolation(f"derived point left its polytope: {exc}") from exc


def _chain_node(case: str, kh, names, chain, w, k: int):
    """The trace node of w in a face of B_kh, kh = k h, factored along ``chain``.

    Every chain the engine factors along is checked here, each step before
    it is read: it runs from 0 to kh's full mask, and each step adds an
    element and keeps the ones before it.  A one-element step is a leaf
    whose level is read from kh, in this loop.  A larger block recurses on
    its gathered table, kh(A_prev + U) - kh(A_prev), still scaled by k, so
    that it decomposes at the original multiplicity k.
    """
    if chain[:1] != (0,) or chain[-1:] != (len(kh) - 1,):
        raise InvariantViolation(f"face chain {chain} does not run from 0 to E")
    children = []
    for prev, cur in zip(chain, chain[1:]):
        step = prev ^ cur
        if not step or step & prev:
            raise InvariantViolation(f"face chain {chain} does not rise strictly")
        if step & (step - 1) == 0:
            children.append(_leaf(kh, prev, cur, w[step.bit_length() - 1], k))
        else:
            positions = _positions(step)
            block_w = tuple(map(w.__getitem__, positions))
            block_names = tuple(map(names.__getitem__, positions))
            children.append(_decompose_rec(_block_values(kh, prev, positions), block_names,
                                           block_w, k, subset_sums(block_w)))
    return DecompositionTrace(case, None, w, k, children, chain)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _terms(trace: DecompositionTrace) -> Terms:
    """The weighted points of a trace, at most its ``dim`` + 1 of them.

    A decomposition is a step function from the weight axis [0, k) to Z^n:
    one walk, ``_lay_out``, lays out its segments and cuts, and
    ``_interleave`` writes each point once.  Along the axis the points fall
    in strictly decreasing lex order (a split's x1 has q + 1 at e, x2 q).
    """
    segments = []
    cuts = _lay_out(trace, 0, tuple(range(len(trace.w))), segments)
    return _interleave(segments, cuts, len(trace.w), trace.k)


def _lay_out(node: DecompositionTrace, lo: int, coords: tuple[int, ...], segments) -> set[int]:
    """Append node's leaf segments on [lo, lo + k) at ``coords``; return its interior cuts.

    A split lays x1 on [lo, lo + r) and x2 after it; block children share
    the interval, at their chain step's coordinates.  The node's
    len(cuts) + 1 points are checked against the bound after its children's.
    """
    cuts = set()
    if node.case == "leaf":
        segments.append((coords[0], lo, lo + node.k, node.w[0] // node.k))
    elif node.case == "split":
        x1, x2 = node.children
        mid = lo + x1.k
        cuts = _lay_out(x1, lo, coords, segments) | {mid} | _lay_out(x2, mid, coords, segments)
    else:
        hi, chain = lo + node.k, node.chain
        for child, prev, cur in zip(node.children, chain, chain[1:]):
            step = prev ^ cur
            if child.case == "leaf":
                # a one-element step: its segment and bound check stay in this loop
                segments.append((coords[step.bit_length() - 1], lo, hi, child.w[0] // node.k))
                _check_bound(0, child)
            else:
                cuts |= _lay_out(child, lo, tuple(map(coords.__getitem__, _positions(step))),
                                 segments)
    _check_bound(len(cuts), node)
    return cuts


def _check_bound(cuts: int, node: DecompositionTrace) -> None:
    """Raise unless a node's cuts + 1 points are at most its dim + 1."""
    if cuts > node.dim:
        raise InvariantViolation(f"{cuts + 1} distinct points exceed the bound dim + 1 = "
                                 f"{node.dim + 1}")


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
