"""Decomposition of integer vectors in k B_f into few integer bases.

Three constructive pieces:

* ``split_into_k_bases``: the integer decomposition property realized by
  repeatedly intersecting B_f with x - (k-1) B_f and taking an integer
  vertex.

* ``merge_direct_sum``: decompositions of blocks on disjoint grounds are
  interleaved along the union of their cumulative-weight breakpoints, so
  t blocks cost only t - 1 extra terms.

* ``decompose``: writes w as a nonnegative integer combination of at most
  dim B_f + 1 integer base vectors.  The recursion tracks the measure
  dim + |E|, which strictly drops along every edge:

    - one element: the polytope is a point;
    - a flat polytope (dim < |E| - 1) factors into a direct sum of
      smaller base polytopes along its tight chain;
    - otherwise fix the first element e and divide w(e) = k q + r.  When
      r = 0, w lies on the proper face x(e) = q of the polytope capped at
      q, which factors as above.  When r > 0, cap f at q+1 and at q, pick
      an integer vertex x' of B_{r f'} intersected with w - B_{(k-r) f''},
      and recurse on x' and w - x' inside their minimal faces; the vertex
      property makes the two face dimensions sum to at most |E| - 2, so
      the two branch counts total at most dim + 1.

Every run records a replayable trace, and ``verify`` re-checks a finished
decomposition from scratch, independent of the trace.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Frozen, SubmodularFn, is_submodular, vector_sum
from .errors import InvariantViolation, UsageError
from .lp import assert_integral, build_intersection_system, find_vertex
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

    def __init__(
        self,
        terms: tuple[tuple[int, tuple[int, ...]], ...],
        target: tuple[int, ...],
        multiplicity: int,
    ):
        self._freeze(terms, target, multiplicity)

    @classmethod
    def from_terms(cls, terms, target, multiplicity: int) -> "WeightedDecomposition":
        target = tuple(target)
        merged = _normalize_terms(terms)
        if not merged:
            raise UsageError("a decomposition needs at least one term")
        for wt, point in merged:
            if not isinstance(wt, int) or wt <= 0:
                raise UsageError(f"term weight must be a positive integer, got {wt!r}")
            if len(point) != len(target):
                raise UsageError("term length does not match the target")
        if sum(wt for wt, _ in merged) != multiplicity:
            raise UsageError("term weights do not sum to the multiplicity")
        for i in range(len(target)):
            if sum(wt * p[i] for wt, p in merged) != target[i]:
                raise UsageError(f"terms do not sum to the target at coordinate {i}")
        return cls(terms=tuple(merged), target=target, multiplicity=multiplicity)

    @property
    def distinct_count(self) -> int:
        return len(self.terms)

    def points(self):
        return [p for _, p in self.terms]


def _normalize_terms(terms) -> Terms:
    """Merge equal points (summing weights) and sort lexicographically."""
    acc: dict[tuple[int, ...], int] = {}
    for wt, point in terms:
        point = tuple(point)
        acc[point] = acc.get(point, 0) + wt
    return [(wt, point) for point, wt in sorted(acc.items(), key=lambda kv: kv[0])]


class DecompositionTrace:
    """One node of the recursion tree; replaying it rebuilds the result.

    The function fields hold the node objects; ``to_dict`` serializes them.
    The node has at most ``dim`` + 1 distinct terms: ``dim`` is dim B_f in
    every case but ``point_face``, where it is the dimension of the minimal
    face holding the node's point.  ``to_dict`` leaves it out.
    """

    __slots__ = (
        "case", "ground", "w", "k", "children", "chain", "e", "q", "r",
        "fn_left", "fn_right", "fn_reduced", "x1", "x2", "dim",
    )

    def __init__(
        self,
        case: str,
        ground: tuple[str, ...],
        w: tuple[int, ...],
        k: int,
        children: list[DecompositionTrace] | None = None,
        chain: tuple[tuple[str, ...], ...] | None = None,
        e: str | None = None,
        q: int | None = None,
        r: int | None = None,
        fn_left: SubmodularFn | None = None,
        fn_right: SubmodularFn | None = None,
        fn_reduced: SubmodularFn | None = None,
        x1: tuple[int, ...] | None = None,
        x2: tuple[int, ...] | None = None,
        dim: int | None = None,
    ):
        self.case = case
        self.ground = ground
        self.w = w
        self.k = k
        self.children = [] if children is None else children
        self.chain = chain
        self.e = e
        self.q = q
        self.r = r
        self.fn_left = fn_left
        self.fn_right = fn_right
        self.fn_reduced = fn_reduced
        self.x1 = x1
        self.x2 = x2
        self.dim = dim

    def to_dict(self) -> dict:
        out = {
            "case": self.case,
            "ground": list(self.ground),
            "w": list(self.w),
            "k": self.k,
        }
        if self.chain is not None:
            out["chain"] = [list(names) for names in self.chain]
        for key in ("e", "q", "r"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        for key in ("fn_left", "fn_right", "fn_reduced"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val.to_node_dict()
        if self.x1 is not None:
            out["x1"] = list(self.x1)
        if self.x2 is not None:
            out["x2"] = list(self.x2)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


# ---------------------------------------------------------------------------
# integer decomposition property
# ---------------------------------------------------------------------------

def split_into_k_bases(f: SubmodularFn, x, k: int) -> list[tuple[int, ...]]:
    """Write x in k B_f as an ordered list of k integer points of B_f."""
    x = tuple(x)
    _require_membership(f, x, k)
    result: list[tuple[int, ...]] = []
    cur = x
    for j in range(k, 1, -1):
        # cur - (j-1) B_f is the base polytope of cur + (j-1) f*
        mirror = f.dual().scale(j - 1).shift(cur)
        system = build_intersection_system(f, mirror)
        vertex = find_vertex(system)
        if vertex is None:
            raise InvariantViolation(
                "empty intersection while splitting; decomposition theory violated"
            )
        point = assert_integral(vertex, system)
        result.append(point)
        cur = tuple(c - p for c, p in zip(cur, point))
    if not in_base_polytope(f, cur):
        raise InvariantViolation("split residue left the base polytope")
    result.append(cur)
    return result


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

    Returns (WeightedDecomposition, DecompositionTrace); the trace's root
    ``dim`` is dim B_f.  Raises
    UsageError naming a violated constraint when w is not in k B_f, and
    InvariantViolation (with diagnostics) if an internal guarantee fails.
    """
    w = tuple(w)
    _require_membership(f, w, k)
    terms, trace = _decompose_rec(f, w, k, None)
    return WeightedDecomposition.from_terms(terms, w, k), trace


def _require_membership(f: SubmodularFn, x, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise UsageError(f"multiplicity must be a positive integer, got {k!r}")
    if len(x) != f.ground.n:
        raise UsageError(f"vector length {len(x)} != ground size {f.ground.n}")
    for v in x:
        if not isinstance(v, int) or isinstance(v, bool):
            raise UsageError(f"vector entries must be integers, got {v!r}")
    ok, pair = is_submodular(f)
    if not ok:
        a, b = (",".join(f.ground.names_of(m)) for m in pair)
        raise UsageError(
            f"f is not submodular: f(A) + f(B) < f(A | B) + f(A & B)"
            f" for A = {{{a}}}, B = {{{b}}}"
        )
    scaled = f.scale(k) if k > 1 else f
    full = f.ground.full_mask
    if vector_sum(x, full) != scaled(full):
        raise UsageError(
            f"x(E) = {vector_sum(x, full)} != {scaled(full)} = {k} * f(E)"
        )
    ok, violated = in_extended_polymatroid(scaled, x)
    if not ok:
        names = ",".join(f.ground.names_of(violated))
        raise UsageError(
            f"violated x({{{names}}}) <= {scaled(violated)}: got {vector_sum(x, violated)}"
        )


def _decompose_rec(f: SubmodularFn, w, k: int, parent_measure):
    ground = f.ground
    n = ground.n
    full = ground.full_mask

    if n == 1:
        value = f(full)
        _check(w[0] == k * value, "leaf target is not k times the level")
        _check_measure(1, parent_measure)
        trace = DecompositionTrace(case="leaf", ground=ground.elements, w=w, k=k, dim=0)
        return [(k, (value,))], trace

    fs = face_structure(f)
    measure = fs.dim + n
    _check_measure(measure, parent_measure)

    if fs.t >= 2:
        terms, children = _recurse_blocks(f, fs, w, k, measure)
        trace = DecompositionTrace(
            case="direct_sum",
            ground=ground.elements,
            w=w,
            k=k,
            chain=_chain_names(ground, fs),
            children=children,
            dim=fs.dim,
        )
        return _bounded(terms, fs.dim), trace

    # full-dimensional: fix the first element
    e_name = ground.elements[0]
    q, r = divmod(w[0], k)

    if r == 0:
        capped = f.reduce_at(e_name, q)
        _check(capped(full) == f(full), "cap at q changed the level")
        scaled = capped.scale(k) if k > 1 else capped
        _check(scaled(1) == w[0], "x(e) = q is not tight for w under the cap")
        face = _face_of(scaled, w)
        _check(face.chain[1] == 1, "fixed element does not start the tight chain")
        terms, children = _recurse_blocks(capped, face, w, k, measure)
        trace = DecompositionTrace(
            case="face_drop",
            ground=ground.elements,
            w=w,
            k=k,
            e=e_name,
            q=q,
            fn_reduced=capped,
            chain=_chain_names(ground, face),
            children=children,
            dim=fs.dim,
        )
        return _bounded(terms, fs.dim), trace

    # r >= 1: split w across the caps at q+1 and q
    upper = f.reduce_at(e_name, q + 1)
    lower = f.reduce_at(e_name, q)
    _check(upper(full) == f(full), "cap at q+1 changed the level")
    _check(lower(full) == f(full), "cap at q changed the level")
    fn_left = upper.scale(r)
    fn_right = lower.dual().scale(k - r).shift(w)
    system = build_intersection_system(fn_left, fn_right)
    vertex = find_vertex(system)
    if vertex is None:
        raise InvariantViolation(
            "empty split intersection; decomposition theory violated"
        )
    x1 = assert_integral(vertex, system)
    x2 = tuple(wi - xi for wi, xi in zip(w, x1))
    _check(x1[0] == r * (q + 1), "x'(e) != r (q+1)")
    _check(x2[0] == (k - r) * q, "x''(e) != (k-r) q")

    left_terms, left_trace = _decompose_point_face(upper, x1, r, measure)
    right_terms, right_trace = _decompose_point_face(lower, x2, k - r, measure)
    _check(left_trace.dim + right_trace.dim <= n - 2, "split faces are not complementary")

    trace = DecompositionTrace(
        case="split",
        ground=ground.elements,
        w=w,
        k=k,
        e=e_name,
        q=q,
        r=r,
        fn_left=fn_left,
        fn_right=fn_right,
        x1=x1,
        x2=x2,
        children=[left_trace, right_trace],
        dim=fs.dim,
    )
    return _bounded(_normalize_terms(left_terms + right_terms), fs.dim), trace


def _face_of(scaled: SubmodularFn, x) -> FaceStructure:
    """Minimal face of a derived point; failures here are engine defects."""
    try:
        return minimal_face_of_point(scaled, x)
    except UsageError as exc:
        raise InvariantViolation(f"derived point left its polytope: {exc}") from exc


def _decompose_point_face(f_base: SubmodularFn, x, mult: int, parent_measure):
    """Decompose x inside the minimal face of B_{mult * f_base} holding it."""
    scaled = f_base.scale(mult) if mult > 1 else f_base
    face = _face_of(scaled, x)
    _check(face.t >= 2, "point face did not factor")
    terms, children = _recurse_blocks(f_base, face, x, mult, parent_measure)
    trace = DecompositionTrace(
        case="point_face",
        ground=f_base.ground.elements,
        w=tuple(x),
        k=mult,
        chain=_chain_names(f_base.ground, face),
        children=children,
        dim=face.dim,
    )
    return terms, trace


def _recurse_blocks(f_base: SubmodularFn, face: FaceStructure, w, k: int, measure):
    """Recurse into the face's blocks and interleave the results.

    Block functions are restrictions of the unscaled f_base so that each
    block decomposes at the original multiplicity k.
    """
    parts: list[Terms] = []
    children = []
    for i in range(face.t):
        block_fn = f_base.block_restrict(face.chain[i], face.blocks[i])
        block_w = face.restrict_vector(w, i)
        block_terms, child = _decompose_rec(block_fn, block_w, k, measure)
        parts.append(block_terms)
        children.append(child)
    combined = [
        (wt, face.scatter(combo)) for wt, combo in _interleave(parts, k)
    ]
    return _normalize_terms(combined), children


def _chain_names(ground, face: FaceStructure):
    return tuple(ground.names_of(m) for m in face.chain)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _check_measure(measure: int, parent) -> None:
    if parent is not None and measure >= parent:
        raise InvariantViolation(
            f"recursion measure did not decrease: {measure} >= {parent}"
        )


def _bounded(terms: Terms, dim: int) -> Terms:
    if len(terms) > dim + 1:
        raise InvariantViolation(
            f"{len(terms)} distinct points exceed the bound dim + 1 = {dim + 1}"
        )
    return terms


# ---------------------------------------------------------------------------
# certificate checking and trace replay
# ---------------------------------------------------------------------------

def verify(f: SubmodularFn, dec: WeightedDecomposition):
    """Re-check a decomposition from scratch; returns (ok, failures).

    Independent of any trace: arithmetic, distinctness, per-point
    base-polytope membership and the cardinality bound.
    """
    failures: list[str] = []
    total_weight = 0
    sums = [0] * len(dec.target)
    seen = set()
    for wt, point in dec.terms:
        if wt <= 0:
            failures.append(f"nonpositive weight {wt}")
        total_weight += wt
        for i, v in enumerate(point):
            sums[i] += wt * v
        if point in seen:
            failures.append(f"duplicate point {point}")
        seen.add(point)
        if not in_base_polytope(f, point):
            failures.append(f"point {point} is not in the base polytope")
    if total_weight != dec.multiplicity:
        failures.append(
            f"weight sum mismatch: {total_weight} != {dec.multiplicity}"
        )
    if tuple(sums) != dec.target:
        failures.append(f"target sum mismatch: {tuple(sums)} != {dec.target}")
    bound = dimension(f) + 1
    if dec.distinct_count > bound:
        failures.append(
            f"cardinality bound exceeded: {dec.distinct_count} > dim + 1 = {bound}"
        )
    return not failures, failures


def replay(trace: DecompositionTrace) -> WeightedDecomposition:
    """Rebuild the decomposition from a trace by pure arithmetic.

    No function evaluations and no LP solves: leaf values, interleavings
    and the split concatenation are recomputed and cross-checked, so a
    tampered trace raises InvariantViolation.
    """
    terms = _replay_terms(trace)
    return WeightedDecomposition.from_terms(terms, trace.w, trace.k)


def _replay_terms(node: DecompositionTrace) -> Terms:
    if node.case == "leaf":
        _check(node.k > 0 and node.w[0] % node.k == 0, "corrupt leaf in trace")
        return [(node.k, (node.w[0] // node.k,))]
    if node.case == "split":
        _check(len(node.children) == 2, "split node needs two children")
        left, right = node.children
        _check(
            node.x1 is not None
            and node.x2 is not None
            and tuple(a + b for a, b in zip(node.x1, node.x2)) == node.w,
            "split parts do not sum to the target",
        )
        _check(left.w == node.x1 and right.w == node.x2, "split children mismatch")
        _check(left.k + right.k == node.k, "split multiplicities mismatch")
        terms = _normalize_terms(_replay_terms(left) + _replay_terms(right))
        _total_check(terms, node)
        return terms
    if node.case in ("direct_sum", "face_drop", "point_face"):
        _check(node.chain is not None and node.children, "corrupt block node")
        name_pos = {name: i for i, name in enumerate(node.ground)}
        blocks = []
        for prev, cur in zip(node.chain, node.chain[1:]):
            blocks.append(tuple(name_pos[nm] for nm in cur if nm not in set(prev)))
        _check(len(blocks) == len(node.children), "chain/children mismatch")
        parts = [_replay_terms(child) for child in node.children]
        out = []
        for wt, combo in _interleave(parts, node.k):
            point = [0] * len(node.ground)
            for positions, part_point in zip(blocks, combo):
                _check(len(positions) == len(part_point), "block width mismatch")
                for p, v in zip(positions, part_point):
                    point[p] = v
            out.append((wt, tuple(point)))
        terms = _normalize_terms(out)
        _total_check(terms, node)
        return terms
    raise InvariantViolation(f"unknown trace case {node.case!r}")


def _total_check(terms: Terms, node: DecompositionTrace) -> None:
    _check(sum(wt for wt, _ in terms) == node.k, "replayed weights mismatch")
    for i in range(len(node.w)):
        _check(
            sum(wt * p[i] for wt, p in terms) == node.w[i],
            "replayed sum mismatch",
        )
