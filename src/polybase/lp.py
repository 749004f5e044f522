"""Exact rational LP over materialized base-polytope constraint systems.

Systems live in R^E with one 0/1 incidence inequality per subset plus the
two x(E) equalities; everything is explicit (no separation oracle) and
every number in the decision path is a Fraction.

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
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import SubmodularFn, bits, subset_sums
from .errors import InvariantViolation, UsageError

RationalPoint = tuple[Fraction, ...]

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


@dataclass(frozen=True)
class ConstraintSystem:
    """x(U) <= rhs inequalities and x(U) = rhs equalities over one ground.

    Coefficient vectors are subset masks; right-hand sides are integers.
    """

    names: tuple[str, ...]
    ineqs: tuple[tuple[int, int], ...]
    eqs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.names)


def build_intersection_system(f: SubmodularFn, g: SubmodularFn) -> ConstraintSystem:
    """Constraints of B_f intersected with B_g.

    Emits x(U) <= f(U) and x(U) <= g(U) for every subset U, plus the two
    level equalities x(E) = f(E) and x(E) = g(E).  When f(E) != g(E) the
    equalities contradict and find_vertex reports Infeasible immediately.
    """
    if f.ground != g.ground:
        raise UsageError("intersection requires a common ground set")
    full = f.ground.full_mask
    ineqs = tuple(enumerate(f.values)) + tuple(enumerate(g.values))
    eqs = ((full, f.values[full]), (full, g.values[full]))
    return ConstraintSystem(names=f.ground.elements, ineqs=ineqs, eqs=eqs)


def dump_system(system: ConstraintSystem) -> str:
    """Human-readable listing, one constraint per line."""
    def subset(mask):
        return "{" + ",".join(sorted(system.names[i] for i in bits(mask))) + "}"

    lines = [f"x({subset(m)}) <= {b}" for m, b in system.ineqs]
    lines += [f"x({subset(m)}) == {b}" for m, b in system.eqs]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# dense exact linear algebra (tiny matrices)
# ---------------------------------------------------------------------------

def _solve_square(m_rows, b_cols):
    """Solve M X = B exactly; M is k x k nonsingular, B is k x c.

    Plain Gaussian elimination, first-nonzero pivoting (deterministic).
    """
    k = len(m_rows)
    aug = [list(m_rows[i]) + list(b_cols[i]) for i in range(k)]
    width = len(aug[0])
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            raise InvariantViolation("singular working-set matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                row_c = aug[col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], row_c)]
    return [row[k:width] for row in aug]


def _echelon(rows):
    """Row-reduce; returns (pivot columns, echelon rows)."""
    ech = []
    pivots = []
    for vec in rows:
        v = list(vec)
        for pcol, prow in zip(pivots, ech):
            if v[pcol] != 0:
                factor = v[pcol]
                v = [a - factor * b for a, b in zip(v, prow)]
        piv = next((i for i, a in enumerate(v) if a != 0), None)
        if piv is None:
            continue
        inv = Fraction(1, 1) / v[piv]
        v = [a * inv for a in v]
        ech.append(v)
        pivots.append(piv)
    return pivots, ech


def _rank_of_rows(rows) -> int:
    pivots, _ = _echelon(rows)
    return len(pivots)


def _null_direction(rows, dim: int):
    """A nonzero vector orthogonal to all rows (rank < dim required)."""
    pivots, ech = _echelon(rows)
    free = next(c for c in range(dim) if c not in pivots)
    d = [Fraction(0)] * dim
    d[free] = Fraction(1)
    # each echelon row is zero before its pivot, so solving in decreasing
    # pivot-column order only ever reads already-known coordinates
    for pcol, prow in sorted(zip(pivots, ech), key=lambda pr: -pr[0]):
        d[pcol] = -sum((prow[c] * d[c] for c in range(pcol + 1, dim)), Fraction(0))
    return d


def affine_rank(points) -> int:
    """Rank of the difference vectors of a nonempty point list."""
    pts = [tuple(Fraction(v) for v in p) for p in points]
    if not pts:
        raise UsageError("affine_rank needs at least one point")
    base = pts[0]
    rows = [[v - w for v, w in zip(p, base)] for p in pts[1:]]
    return _rank_of_rows(rows)


# ---------------------------------------------------------------------------
# vertex finding
# ---------------------------------------------------------------------------

def find_vertex(system: ConstraintSystem, debug: bool = False):
    """Lex-max vertex of the system, or None when infeasible.

    Deterministic: identical systems give identical vertices.  Raises
    InvariantViolation if the feasible set is unbounded (cannot happen for
    systems built from two base polytopes, which carry all singleton
    bounds and the level equalities).
    """
    if debug or os.environ.get("POLYBASE_LP_DEBUG"):
        print(dump_system(system), file=sys.stderr)

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
    rows: list[tuple[int, int, Fraction]] = []
    rows += [(1, m, Fraction(b)) for m, b in system.ineqs]
    for m, b in system.eqs:
        rows.append((1, m, Fraction(b)))
        rows.append((-1, m, Fraction(-b)))
    rows.append((1, 0, Fraction(0)))

    def normal(row):
        sign, mask, _ = row
        v = [Fraction(0)] * dim
        for i in bits(mask):
            v[i] = Fraction(sign)
        v[n] = Fraction(-1)
        return v

    x = [Fraction(0)] * n
    t = max(Fraction(0), max(-b for _, _, b in rows))
    sums_x = subset_sums(x)

    def slack(row):
        sign, mask, rhs = row
        return rhs - (sums_x[mask] if sign > 0 else -sums_x[mask]) + t

    def ratio_step(d):
        """Largest feasible step along d; returns (alpha, blocking row index)."""
        sums_d = subset_sums(d[:n])
        dt = d[n]
        best = None
        enter = None
        for j, row in enumerate(rows):
            sign, mask, _ = row
            der = (sums_d[mask] if sign > 0 else -sums_d[mask]) - dt
            if der > 0:
                ratio = slack(row) / der
                if best is None or ratio < best:
                    best = ratio
                    enter = j
        return best, enter

    def take_step(alpha, d):
        nonlocal x, t, sums_x
        if alpha != 0:
            x = [v + alpha * dv for v, dv in zip(x, d[:n])]
            t = t + alpha * d[n]
            sums_x = subset_sums(x)

    def lex_sign(vec):
        for v in vec:
            if v != 0:
                return 1 if v > 0 else -1
        return 0

    # -- purification: climb to a vertex of the relaxed system ---------
    while True:
        working: list[int] = []
        basis: list[list[Fraction]] = []
        basis_pivots: list[int] = []
        for j, row in enumerate(rows):
            if slack(row) != 0:
                continue
            v = normal(row)
            for pcol, prow in zip(basis_pivots, basis):
                if v[pcol] != 0:
                    factor = v[pcol]
                    v = [a - factor * b for a, b in zip(v, prow)]
            piv = next((i for i, a in enumerate(v) if a != 0), None)
            if piv is None:
                continue
            inv = Fraction(1, 1) / v[piv]
            basis.append([a * inv for a in v])
            basis_pivots.append(piv)
            working.append(j)
            if len(working) == dim:
                break
        if len(working) == dim:
            break
        d = _null_direction([normal(rows[j]) for j in working], dim)
        lex = [-d[n]] + d[:n]
        sign = lex_sign(lex)
        if sign < 0:
            d = [-v for v in d]
        alpha, enter = ratio_step(d)
        if enter is None:
            raise InvariantViolation(
                "feasible set is unbounded; not a two-base-polytope system",
                dump=dump_system(system),
            )
        take_step(alpha, d)

    # -- lexicographic simplex over the working set ---------------------
    # objective columns: -t first, then x_0 .. x_{n-1}
    obj_cols = []
    for coord in range(dim):
        col = [Fraction(0)] * dim
        if coord == n:
            col[0] = Fraction(-1)
        else:
            col[coord + 1] = Fraction(1)
        obj_cols.append(col)

    pivots = 0
    while True:
        working.sort()
        normals = [normal(rows[j]) for j in working]
        m_t = [[normals[i][coord] for i in range(dim)] for coord in range(dim)]
        multipliers = _solve_square(m_t, obj_cols)
        leave_pos = next(
            (pos for pos in range(dim) if lex_sign(multipliers[pos]) < 0), None
        )
        if leave_pos is None:
            break
        rhs = [[Fraction(0)] for _ in range(dim)]
        rhs[leave_pos][0] = Fraction(-1)
        d = [row[0] for row in _solve_square(normals, rhs)]
        alpha, enter = ratio_step(d)
        if enter is None:
            raise InvariantViolation(
                "unbounded improving ray; not a two-base-polytope system",
                dump=dump_system(system),
            )
        take_step(alpha, d)
        working[leave_pos] = enter
        pivots += 1
        stats["pivots"] += 1
        if pivots > _PIVOT_CAP:
            raise InvariantViolation(
                "pivot cap exceeded; anti-cycling failure", dump=dump_system(system)
            )

    if t > 0:
        stats["infeasible_systems"] += 1
        return None
    if t != 0:
        raise InvariantViolation("negative infeasibility measure", dump=dump_system(system))

    # final safety: exact feasibility of the answer
    for m, b in system.ineqs:
        if sums_x[m] > b:
            raise InvariantViolation(
                "kernel returned an infeasible point", dump=dump_system(system)
            )
    for m, b in system.eqs:
        if sums_x[m] != b:
            raise InvariantViolation(
                "kernel returned a point off an equality", dump=dump_system(system)
            )
    stats["vertices_found"] += 1
    return tuple(x)


def assert_integral(point, system: ConstraintSystem | None = None) -> tuple[int, ...]:
    """Cast an LP vertex to integers; abort loudly if any denominator > 1.

    Vertices of intersections of two integer base polytopes are integral;
    a fractional coordinate here means a software defect, so the error
    carries a dump of the offending system.
    """
    out = []
    for v in point:
        frac = Fraction(v)
        if frac.denominator != 1:
            stats["nonintegral_vertices"] += 1
            raise InvariantViolation(
                f"non-integral vertex coordinate {frac}",
                dump=dump_system(system) if system is not None else None,
            )
        out.append(frac.numerator)
    stats["integral_vertices"] += 1
    return tuple(out)
