"""The exact rational vertex kernel that ``polybase.lp.find_vertex`` replaced.

A ``Fraction`` simplex kept as a differential test oracle: the same
purification and Bland simplex as the integer kernel, with every number a
``Fraction``.  It counts into its own ``stats`` dict, so the package's
``lp.stats`` audit never sees its calls.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

from polybase.core import bits, subset_sums
from polybase.errors import InvariantViolation
from polybase.lp import _PIVOT_CAP, ConstraintSystem, dump_system

stats = {
    "vertices_found": 0,
    "integral_vertices": 0,
    "nonintegral_vertices": 0,
    "infeasible_systems": 0,
    "pivots": 0,
}


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
