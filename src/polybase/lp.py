"""Exact LP over materialized base-polytope constraint systems.

An intersection system lives in R^E: two 0/1 incidence inequalities per
subset U, x(U) <= f(U) and x(U) <= g(U), and the two level equalities
x(E) = f(E) and x(E) = g(E); ``find_vertex`` adds the row t >= 0.  Everything
is explicit (no separation oracle) and every decision-path number is an integer.

``find_vertex`` returns the lexicographically maximal vertex: maximize
x(e1), fix it, then x(e2), and so on in ground order.  The kernel is a
simplex over one auxiliary coordinate t (a uniform constraint relaxation):
starting from the trivially feasible point (0, max violation), it walks
vertices of the relaxed system while lexicographically maximizing
(-t, x(e1), ..., x(en)).  Minimizing t first is the feasibility phase; the
remaining objectives pin the unique lex-max vertex, so one pivot rule
serves both phases.  Anti-cycling is Bland's rule on constraint indices
(the lexicographic objective is an ordinary linear objective over the
field Q(eps), where Bland's termination argument applies unchanged).

The arithmetic is fraction-free.  The point (x, t) is held as integer
numerators over one positive common denominator, reduced by their gcd
after every step, and each row's slack as that denominator times the
slack.  Working sets, null directions and simplex multipliers come from
integer row elimination (Bareiss 1968 for the square solves); ratio tests
compare by cross-multiplication.  Every direction is a positive multiple
of its rational counterpart, so the kernel takes the steps of the
rational simplex, with the same working sets, entering and leaving rows.
"""

from __future__ import annotations

from math import gcd

from .core import Frozen, GroundSet, _check_int_vector, _check_seq, bits, subset_sums
from .errors import InvariantViolation, UsageError

# Running tallies for integrality auditing; single-threaded use only.
stats = {
    "vertices_found": 0,
    "integral_vertices": 0,
    "nonintegral_vertices": 0,
    "infeasible_systems": 0,
    "pivots": 0,
}


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0


_PIVOT_CAP = 200_000


class ConstraintSystem(Frozen):
    """x(U) <= rhs inequalities and x(U) = rhs equalities over one ground.

    Coefficient vectors are subset masks; right-hand sides are integers.
    """

    __slots__ = ("names", "ineqs", "eqs")

    @property
    def n(self) -> int:
        return len(self.names)


def build_intersection_system(ground: GroundSet, f_values, g_values) -> ConstraintSystem:
    """Constraints of B_f intersected with B_g, from the value tables of f and g.

    Emits x(U) <= f(U) and x(U) <= g(U) for every subset U, plus the two
    level equalities x(E) = f(E) and x(E) = g(E).  When f(E) != g(E) the
    equalities contradict and find_vertex reports Infeasible immediately.
    """
    tables = [_check_seq(v, None, "intersection table") for v in (f_values, g_values)]
    if not len(tables[0]) == len(tables[1]) == 1 << ground.n:
        raise UsageError(f"intersection tables need {1 << ground.n} values on this ground")
    f_values, g_values = (_check_int_vector(v, None, "intersection table") for v in tables)
    full = ground.full_mask
    ineqs = tuple(enumerate(f_values)) + tuple(enumerate(g_values))
    eqs = ((full, f_values[full]), (full, g_values[full]))
    return ConstraintSystem(ground.elements, ineqs, eqs)


def dump_system(system: ConstraintSystem) -> str:
    """Human-readable listing, one constraint per line."""
    def subset(mask):
        return "{" + ",".join(sorted(system.names[i] for i in bits(mask))) + "}"

    lines = [f"x({subset(m)}) <= {b}" for m, b in system.ineqs]
    lines += [f"x({subset(m)}) == {b}" for m, b in system.eqs]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# fraction-free linear algebra (tiny integer matrices)
# ---------------------------------------------------------------------------

def _reduce_row(vec, pivots, ech):
    """Eliminate vec against echelon rows; returns (pivot column or None, row).

    Each elimination replaces v by p * v - v[c] * row, where p is the
    echelon row's entry in its pivot column c: a nonzero multiple of the
    rational step v - (v[c] / p) * row, so zero patterns and pivot columns
    are those of rational elimination.  The result is divided by its
    content to keep entries small.
    """
    v = vec
    for pcol, prow in zip(pivots, ech):
        a = v[pcol]
        if a:
            p = prow[pcol]
            v = [p * x - a * y for x, y in zip(v, prow)]
    piv = next((i for i, a in enumerate(v) if a), None)
    if piv is None:
        return None, v
    return piv, _primitive(v)


def _primitive(v):
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return v if g == 1 else [a // g for a in v]


def _adjugate(rows):
    """(det, det * inverse) of a nonsingular square integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): every division
    is exact, and elimination ends with det on the diagonal.  Pivots are
    the first nonzero entry at or below the diagonal (deterministic).
    """
    k = len(rows)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            raise InvariantViolation("singular working-set matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(k):
            if r != col:
                row = aug[r]
                a = row[col]
                aug[r] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
        prev = p
    return prev, [row[k:] for row in aug]


def _null_direction(pivots, ech, dim: int):
    """A nonzero integer vector orthogonal to the echelon rows (fewer than dim).

    A positive or negative multiple of the rational back-substitution that
    sets the first free column to 1 and the other free columns to 0.
    """
    free = next(c for c in range(dim) if c not in pivots)
    d = [0] * dim
    d[free] = 1
    # each echelon row is zero before its pivot, so solving in decreasing
    # pivot-column order only ever reads already-known coordinates
    for pcol, prow in sorted(zip(pivots, ech), key=lambda pr: -pr[0]):
        s = sum(prow[c] * d[c] for c in range(pcol + 1, dim))
        if s:
            g = gcd(prow[pcol], s)
            scale = prow[pcol] // g
            if scale != 1:
                d = [scale * v for v in d]
            d[pcol] = -s // g
    return _primitive(d)


def _lex_sign(vec) -> int:
    for v in vec:
        if v:
            return 1 if v > 0 else -1
    return 0


# ---------------------------------------------------------------------------
# vertex finding
# ---------------------------------------------------------------------------

def find_vertex(system: ConstraintSystem):
    """Lex-max vertex of the system, or None when infeasible.

    Deterministic: identical systems give identical vertices.  Coordinates
    are ints, or Fractions when the vertex is not integral.  Raises
    InvariantViolation if the feasible set is unbounded (cannot happen for
    systems built from two base polytopes, which carry all singleton
    bounds and the level equalities).
    """
    # Immediate contradictions: parallel equalities, empty-set rows.
    seen = {}
    for m, b in system.eqs:
        if seen.setdefault(m, b) != b or (m == 0 and b != 0):
            stats["infeasible_systems"] += 1
            return None
    if any(m == 0 and b < 0 for m, b in system.ineqs):
        stats["infeasible_systems"] += 1
        return None

    n = system.n
    dim = n + 1  # coordinates (x_0 .. x_{n-1}, t)

    # Every row reads sign * x(mask) - t <= rhs; the last row is t >= 0.
    rows = [(1, m, b) for m, b in system.ineqs]
    for m, b in system.eqs:
        rows.append((1, m, b))
        rows.append((-1, m, -b))
    rows.append((1, 0, 0))

    def normal(j):
        sign, mask, _ = rows[j]
        v = [0] * dim
        for i in bits(mask):
            v[i] = sign
        v[n] = -1
        return v

    # The point (x, t) is point[:n] / den and point[n] / den over one
    # positive common denominator; slack[j] is den times row j's slack.
    den = 1
    point = [0] * n + [max(0, max(-b for _, _, b in rows))]
    slack = [b + point[n] for _, _, b in rows]

    def ratio_step(d):
        """Blocking row of the largest feasible step along d, and every row's rate."""
        sums_d = subset_sums(d[:n])
        dt = d[n]
        rates = [(sums_d[m] if s > 0 else -sums_d[m]) - dt for s, m, _ in rows]
        enter = None
        for j, rate in enumerate(rates):
            # slack[j] / rate < best_slack / best_rate, both rates positive
            if rate > 0 and (enter is None or slack[j] * best_rate < best_slack * rate):
                enter, best_slack, best_rate = j, slack[j], rate
        return enter, rates

    def take_step(enter, rates, d):
        # step slack[enter] / (den * rates[enter]) along d, kept in lowest terms
        nonlocal den, point, slack
        step = slack[enter]
        if step:
            q = rates[enter]
            den *= q
            point = [q * a + step * b for a, b in zip(point, d)]
            slack = [q * a - step * b for a, b in zip(slack, rates)]
            g = gcd(den, *point)
            if g > 1:
                den //= g
                point = [a // g for a in point]
                slack = [a // g for a in slack]

    # -- purification: climb to a vertex of the relaxed system ---------
    while True:
        working: list[int] = []
        basis: list[list[int]] = []
        basis_pivots: list[int] = []
        for j, s in enumerate(slack):
            if s:
                continue
            piv, v = _reduce_row(normal(j), basis_pivots, basis)
            if piv is None:
                continue
            basis.append(v)
            basis_pivots.append(piv)
            working.append(j)
            if len(working) == dim:
                break
        if len(working) == dim:
            break
        d = _null_direction(basis_pivots, basis, dim)
        if _lex_sign([-d[n]] + d[:n]) < 0:
            d = [-v for v in d]
        enter, rates = ratio_step(d)
        if enter is None:
            raise InvariantViolation(
                "feasible set is unbounded; not a two-base-polytope system",
                dump=dump_system(system),
            )
        take_step(enter, rates, d)

    # -- lexicographic simplex over the working set ---------------------
    # Column pos of adj = det * M^-1 (M: the working normals) gives the
    # multipliers of working row pos on the objectives (-t, x_0 .. x_{n-1})
    # as (-adj[n][pos], adj[0][pos] .. adj[n-1][pos]) / det.
    pivots = 0
    while True:
        working.sort()
        det, adj = _adjugate([normal(j) for j in working])
        sign = 1 if det > 0 else -1
        leave_pos = next(
            (
                pos
                for pos in range(dim)
                if sign * _lex_sign([-adj[n][pos]] + [adj[i][pos] for i in range(n)]) < 0
            ),
            None,
        )
        if leave_pos is None:
            break
        # M d = -e_leave: leave the row's bound, stay on the other rows
        d = _primitive([-sign * adj[i][leave_pos] for i in range(dim)])
        enter, rates = ratio_step(d)
        if enter is None:
            raise InvariantViolation(
                "unbounded improving ray; not a two-base-polytope system",
                dump=dump_system(system),
            )
        take_step(enter, rates, d)
        working[leave_pos] = enter
        pivots += 1
        stats["pivots"] += 1
        if pivots > _PIVOT_CAP:
            raise InvariantViolation(
                "pivot cap exceeded; anti-cycling failure", dump=dump_system(system)
            )

    if point[n] > 0:
        stats["infeasible_systems"] += 1
        return None
    if point[n] != 0:
        raise InvariantViolation("negative infeasibility measure", dump=dump_system(system))

    # final safety: exact feasibility of the answer
    x = point[:n]
    sums_x = subset_sums(x)
    for m, b in system.ineqs:
        if sums_x[m] > den * b:
            raise InvariantViolation(
                "kernel returned an infeasible point", dump=dump_system(system)
            )
    for m, b in system.eqs:
        if sums_x[m] != den * b:
            raise InvariantViolation(
                "kernel returned a point off an equality", dump=dump_system(system)
            )
    stats["vertices_found"] += 1
    if den == 1:
        return tuple(x)
    from fractions import Fraction  # only a non-integral vertex needs it

    return tuple(Fraction(a, den) for a in x)


def assert_integral(point, system: ConstraintSystem | None = None) -> tuple[int, ...]:
    """Cast an LP vertex to integers; abort loudly if any denominator > 1.

    Vertices of intersections of two integer base polytopes are integral;
    a fractional coordinate here means a software defect, so the error
    carries a dump of the offending system.
    """
    out = []
    for v in _check_seq(point, None, "vertex", "a sequence of numbers"):
        if isinstance(v, bool) or not hasattr(v, "as_integer_ratio"):
            raise UsageError(f"vertex coordinates must be numbers, got {v!r}")
        try:
            num, den = v.as_integer_ratio()
        except (ValueError, OverflowError):  # NaN, or an infinity
            raise UsageError(f"vertex coordinates must be finite, got {v!r}") from None
        if den != 1:
            stats["nonintegral_vertices"] += 1
            raise InvariantViolation(
                f"non-integral vertex coordinate {num}/{den}",
                dump=dump_system(system) if system is not None else None,
            )
        out.append(num)
    stats["integral_vertices"] += 1
    return tuple(out)
