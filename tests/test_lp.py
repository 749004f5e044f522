"""Unit tests for the exact LP kernel."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

import lp_reference
import polybase.lp as lp
from corpus import (
    acceptance_corpus,
    ground,
    k3,
    random_graphic,
    random_instance,
    random_partition,
    random_table,
    sample_target,
    small_scope,
    tiny_instances,
    u12,
    u23,
)
from polybase import (
    InvariantViolation,
    UniformRank,
    UsageError,
    assert_integral,
    build_intersection_system,
    decompose,
    dump_system,
    enumerate_base_points,
    find_vertex,
    split_into_k_bases,
)


def subset_sum(x, mask, n):
    return sum(x[i] for i in range(n) if mask >> i & 1)


def affine_rank(points) -> int:
    """Rank of the difference vectors of a nonempty point list.

    Plain Gaussian elimination over Fractions, sharing nothing with the
    kernel's integer row reduction.
    """
    if not points:
        raise UsageError("affine_rank needs at least one point")
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            ratio = rows[r][col] / top[col]
            rows[r] = [a - ratio * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def intersection(f, g):
    """The system of B_f intersected with B_g, built from the two value tables."""
    return build_intersection_system(f.ground, f.values, g.values)


def satisfies(system, x):
    n = system.n
    for m, b in system.ineqs:
        if subset_sum(x, m, n) > b:
            return False
    for m, b in system.eqs:
        if subset_sum(x, m, n) != b:
            return False
    return True


class TestBuildSystem:
    def test_counts(self):
        f = u23()
        system = intersection(f, f)
        assert len(system.ineqs) == 8
        assert len(system.eqs) == 2
        assert system.names == ("a", "b", "c")

    def test_ground_mismatch(self):
        # u12's table has 4 values, a ground of three elements needs 8
        with pytest.raises(UsageError, match="need 8 values"):
            build_intersection_system(u23().ground, u12().values, u23().values)

    def test_split_system_contains_the_average(self):
        # B_f meets x - (k-1) B_f whenever x lies in k B_f
        f = k3()
        x, k = (2, 2, 2), 3
        mirror = f.dual().scale(k - 1).shift(x)
        system = intersection(f, mirror)
        frac = tuple(Fraction(v, k) for v in x)
        assert satisfies(system, frac)


class TestFindVertex:
    def test_lex_vertex_of_hypersimplex_section(self):
        system = intersection(u23(), u23())
        assert find_vertex(system) == (1, 1, 0)

    def test_segment_prefers_first_coordinate(self):
        system = intersection(u12(), u12())
        assert find_vertex(system) == (1, 0)

    def test_parallel_levels_infeasible(self):
        system = intersection(u12(), u12().shift((5, 5)))
        assert find_vertex(system) is None

    def test_returned_point_satisfies_all_constraints(self):
        rng = random.Random(17)
        for _, f in tiny_instances():
            x = tuple(2 * v for v in _greedy(f, rng))
            mirror = f.dual().shift(x)  # x - B_f
            system = intersection(f, mirror)
            v = find_vertex(system)
            assert v is not None
            assert satisfies(system, v)

    def test_vertex_has_full_rank_tight_normals(self):
        f = k3()
        x = (2, 2, 2)
        mirror = f.dual().scale(2).shift(x)
        system = intersection(f, mirror)
        v = find_vertex(system)
        n = system.n
        normals = []
        for m, b in system.ineqs:
            if subset_sum(v, m, n) == b:
                normals.append(tuple(1 if m >> i & 1 else 0 for i in range(n)))
        for m, _ in system.eqs:
            normals.append(tuple(1 if m >> i & 1 else 0 for i in range(n)))
        zero = tuple(0 for _ in range(n))
        assert affine_rank(normals + [zero]) == n

    def test_determinism(self):
        f = k3()
        mirror = f.dual().scale(2).shift((2, 2, 2))
        system = intersection(f, mirror)
        assert find_vertex(system) == find_vertex(system)

    def test_infeasible_has_no_integer_points(self):
        # feasibility agreement with exhaustive box enumeration
        f = u23()
        g = u23().shift((2, 0, 0))  # levels 2 vs 4: parallel, disjoint
        system = intersection(f, g)
        assert find_vertex(system) is None
        pts_f = set(enumerate_base_points(f))
        pts_g = set(enumerate_base_points(g))
        assert not (pts_f & pts_g)

    @pytest.mark.parametrize("ineqs, eqs, match", [
        (((4, 1),), ((1, 1),), "mask 0x4 out of range for ground set of size 1"),
        (((-1, 1),), ((1, 1),), "mask -0x1 out of range"),
        (((1, 1),), ((2, 1),), "mask 0x2 out of range"),
        (((1, 1.5),), ((1, 1),), "bounds must have integer entries, got 1.5"),
        (((1, True),), ((1, 1),), "bounds must have integer entries, got True"),
        (((True, 1),), ((1, 1),), "masks must have integer entries, got True"),
        (((1, 1, 1),), ((1, 1),), "rows must be \\(mask, bound\\) pairs"),
        (((1,), (1, 1)), ((1, 1),), "rows must be \\(mask, bound\\) pairs"),
        (5, ((1, 1),), "inequalities must be a sequence of rows"),
    ], ids=["mask-outside-ground", "negative-mask", "equality-mask-outside-ground",
            "float-bound", "bool-bound", "bool-mask", "triple", "ragged", "not-a-sequence"])
    def test_refuses_a_malformed_system_before_any_arithmetic(self, ineqs, eqs, match):
        lp.reset_stats()
        with pytest.raises(UsageError, match=match):
            find_vertex(lp.ConstraintSystem(("a",), ineqs, eqs))
        assert lp.stats == dict.fromkeys(lp.stats, 0)

    def test_refuses_names_that_are_not_a_sequence(self):
        with pytest.raises(UsageError, match="names must be a sequence of names, got 1"):
            find_vertex(lp.ConstraintSystem(1, ((1, 1),), ((1, 1),)))

    def test_common_point_never_reported_infeasible(self):
        rng = random.Random(23)
        for _, f in tiny_instances():
            v1 = _greedy(f, rng)
            v2 = _greedy(f, rng)
            x = tuple(a + b for a, b in zip(v1, v2))
            mirror = f.dual().shift(x)
            system = intersection(f, mirror)
            assert find_vertex(system) is not None


def brute_lex_max_vertex(system):
    """Oracle: lex-max vertex by solving every candidate tight system.

    Any vertex admits a tight basis containing the level equality, and a
    tight subset row always sits at the smaller of the two bounds.
    """
    n = system.n
    tightest = {}
    for m, b in system.ineqs:
        tightest[m] = min(tightest.get(m, b), b)
    eq_m, eq_b = system.eqs[0]
    best = None
    for combo in itertools.combinations(sorted(tightest), n - 1):
        rows = [[Fraction(1 if eq_m >> i & 1 else 0) for i in range(n)]]
        rhs = [Fraction(eq_b)]
        for m in combo:
            rows.append([Fraction(1 if m >> i & 1 else 0) for i in range(n)])
            rhs.append(Fraction(tightest[m]))
        x = _solve_or_none(rows, rhs)
        if x is None or not satisfies(system, x):
            continue
        if best is None or x > best:
            best = x
    return best


def _solve_or_none(rows, rhs):
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def edmonds_lex_max(f_values, g_values):
    """Oracle: lex-max point of B_f intersected with B_g, by Edmonds' theorem.

    The intersection is nonempty iff f(E) = g(E) and f(U) + g(E - U) >= f(E)
    for every U (Edmonds 1970; Fujishige, Submodular Functions and
    Optimization, ch. 3).  Then the largest x(e) on it is the minimum over
    U containing e of f(U) + g((E - U) + e) - f(E), and fixing x(e) at that
    value leaves the intersection for U -> min(f(U), f(U + e) - x(e)) and
    the same for g, both on E - e.  Coordinates are fixed in ground order.
    No linear programming: the kernel-free reference for ``find_vertex``.
    """
    fv, gv = list(f_values), list(g_values)
    rest = len(fv) - 1
    level = fv[rest]
    if gv[rest] != level or any(fv[u] + gv[rest ^ u] < level for u in range(rest + 1)):
        return None
    point = []
    for i in range(rest.bit_length()):
        bit = 1 << i
        subsets = [u for u in range(rest + 1) if u & rest == u]
        c = min(fv[u] + gv[rest ^ u | bit] for u in subsets if u & bit) - fv[rest]
        for u in subsets:
            if not u & bit:
                fv[u] = min(fv[u], fv[u | bit] - c)
                gv[u] = min(gv[u], gv[u | bit] - c)
        rest ^= bit
        point.append(c)
    return tuple(point)


def intersection_pairs(count, seed):
    """(kind, f, g) pairs on n = 2..6, cycling through five kinds.

    ``tables``: two random tables, g shifted to f's level; ``matroids``:
    two random rank functions (uniform, partition, graphic), of equal rank
    when one turns up in 20 draws; ``split``: the mirror
    f.dual().scale(j).shift(x) for x in (j + 1) B_f, always feasible;
    ``level``: g = f shifted by a unit vector, so f(E) != g(E); ``cut``:
    the mirror of an x with the right level outside 2 B_f, so some U has
    f(U) + g(E - U) < f(E).
    """

    def random_rank(g, rng):
        kind = rng.randrange(3)
        if kind == 0:
            return UniformRank(g, rng.randint(0, g.n))
        return (random_partition if kind == 1 else random_graphic)(g, rng)

    rng = random.Random(seed)
    kinds = ("tables", "matroids", "split", "level", "cut")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = 2 + i // len(kinds) % 5
        g = ground(n)
        if kind == "tables":
            f, h = random_table(g, rng), random_table(g, rng)
            gap = f(g.full_mask) - h(g.full_mask)
            yield kind, f, h.shift((gap,) + (0,) * (n - 1))
        elif kind == "matroids":
            f = random_rank(g, rng)
            for _ in range(20):
                h = random_rank(g, rng)
                if h(g.full_mask) == f(g.full_mask):
                    break
            yield kind, f, h
        else:
            f = random_instance(n, rng)[1]
            if kind == "split":
                j = rng.randint(1, 3)
                yield kind, f, f.dual().scale(j).shift(sample_target(f, j + 1, rng))
            elif kind == "level":
                yield kind, f, f.shift((0,) * (n - 1) + (1,))
            else:
                x = list(sample_target(f, 2, rng))
                a, b = rng.sample(range(n), 2)
                step = 2 * f(1 << a) - x[a] + 1
                x[a] += step
                x[b] -= step
                yield kind, f, f.dual().shift(x)


class TestLexMaxOracle:
    def test_kernel_matches_edmonds_intersection_oracle(self, monkeypatch):
        outcomes = {}
        engine = [("engine", *tables) for tables in engine_pairs(monkeypatch, 9091)]
        assert {ground.n for _, ground, _, _ in engine} == set(range(2, 9))
        pairs = [(kind, f.ground, f.values, g.values)
                 for kind, f, g in intersection_pairs(320, 8128)]
        for kind, ground, f_values, g_values in pairs + engine:
            expected = edmonds_lex_max(f_values, g_values)
            got = find_vertex(build_intersection_system(ground, f_values, g_values))
            assert got == expected, (kind, f_values, g_values)
            outcomes.setdefault(kind, set()).add(expected is None)
        assert outcomes["split"] == outcomes["engine"] == {False}
        assert outcomes["level"] == outcomes["cut"] == {True}
        assert outcomes["tables"] == outcomes["matroids"] == {False, True}

    def test_one_row_per_subset_keeps_the_two_row_vertex(self, monkeypatch):
        # the builder writes x(U) <= f(U) and x(U) <= g(U), which share a
        # normal, as one row x(U) <= min(f(U), g(U)); the polytope and so its
        # lex-max vertex are those of the system with both rows, built here by hand
        engine = engine_pairs(monkeypatch, 9091)
        pairs = [(f.ground, f.values, g.values) for _, f, g in intersection_pairs(320, 8128)]
        for ground, f_values, g_values in engine:
            system = build_intersection_system(ground, f_values, g_values)
            assert len(system.ineqs) == len({m for m, _ in system.ineqs}) == 2**ground.n
            assert len(system.eqs) == 2
        for ground, f_values, g_values in pairs + engine:
            full = ground.full_mask
            two_rows = lp.ConstraintSystem(
                ground.elements, tuple(enumerate(f_values)) + tuple(enumerate(g_values)),
                ((full, f_values[full]), (full, g_values[full])),
            )
            got = find_vertex(build_intersection_system(ground, f_values, g_values))
            assert got == find_vertex(two_rows) == edmonds_lex_max(f_values, g_values), (
                f_values, g_values)

    def test_small_scope_vertex_systems_match_edmonds(self, monkeypatch):
        # every vertex system that decomposing the small scope builds:
        # all 1390 submodular tables on three elements with f(empty) = 0 and
        # values in -1..2, and every w in k B_f for k <= 2; only k = 2 splits
        # (at k = 1 the remainder w(e) mod k is 0), and each distinct system is
        # solved once more here
        engine = sys.modules["polybase.decompose"]
        vertex = engine._integer_vertex
        systems = {}

        def recording(ground, f_values, g_values, empty):
            systems.setdefault((tuple(f_values), tuple(g_values)), ground)
            return vertex(ground, f_values, g_values, empty)

        monkeypatch.setattr(engine, "_integer_vertex", recording)
        scope = small_scope()
        runs = 0
        for f, _ in scope:
            points = enumerate_base_points(f).points
            for k in (1, 2):
                targets = {tuple(map(sum, zip(*combo)))
                           for combo in itertools.combinations_with_replacement(points, k)}
                for w in targets:
                    decompose(f, w, k)
                runs += len(targets)
        assert (len(scope), runs, len(systems)) == (1390, 42052, 4947)
        for (f_values, g_values), ground in systems.items():
            system = build_intersection_system(ground, f_values, g_values)
            assert find_vertex(system) == edmonds_lex_max(f_values, g_values), (
                f_values, g_values)

    def test_kernel_matches_brute_force_enumeration(self):
        from corpus import random_table, sample_target

        rng = random.Random(12345)
        for _ in range(40):
            n = rng.randint(2, 3)
            f = random_table(ground(n), rng)
            k = rng.randint(2, 4)
            x = sample_target(f, k, rng)
            mirror = f.dual().scale(k - 1).shift(x)
            system = intersection(f, mirror)
            assert find_vertex(system) == brute_lex_max_vertex(system)


def engine_pairs(monkeypatch, seed):
    """The (ground, f table, g table) triples decompose and split_into_k_bases
    take integer vertices of, recorded at their one vertex step.

    Every fifth acceptance-corpus instance (n = 2..8), one decomposition and
    one split each at a seeded k in 2..6.
    """
    engine = sys.modules["polybase.decompose"]
    vertex = engine._integer_vertex
    pairs = []

    def recording(ground, f_values, g_values, empty):
        pairs.append((ground, f_values, g_values))
        return vertex(ground, f_values, g_values, empty)

    rng = random.Random(seed)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_integer_vertex", recording)
        for _, f in acceptance_corpus()[::5]:
            k = rng.randint(2, 6)
            decompose(f, sample_target(f, k, rng), k)
            split_into_k_bases(f, sample_target(f, k, rng), k)
    return pairs


def assert_reference_steps(monkeypatch, systems):
    """Each system's vertex, pivot count and purification steps (calls to
    _null_direction through the module global) equal lp_reference's."""
    steps = dict.fromkeys((lp, lp_reference), 0)
    for module in steps:
        def counted(*args, module=module, null_direction=module._null_direction):
            steps[module] += 1
            return null_direction(*args)

        monkeypatch.setattr(module, "_null_direction", counted)
    for system in systems:
        before = {module: (module.stats["pivots"], steps[module]) for module in steps}
        assert find_vertex(system) == lp_reference.find_vertex(system), dump_system(system)
        moved = [(module.stats["pivots"] - pivots, steps[module] - taken)
                 for module, (pivots, taken) in before.items()]
        assert moved[0] == moved[1], dump_system(system)


class TestReferenceKernel:
    def test_integer_kernel_takes_the_fraction_kernels_steps(self, monkeypatch):
        # same vertex, same purification steps (calls to _null_direction
        # through the module global, as the benchmark's tracer counts them)
        # and same pivots as the Fraction simplex it replaced
        systems = [intersection(f, g) for _, f, g in intersection_pairs(160, 4242)]
        systems += [build_intersection_system(*t) for t in engine_pairs(monkeypatch, 9091)]
        steps = {"int": 0, "ref": 0}

        def counted(key, fn):
            def wrapper(*args):
                steps[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(lp, "_null_direction", counted("int", lp._null_direction))
        monkeypatch.setattr(
            lp_reference, "_null_direction", counted("ref", lp_reference._null_direction)
        )
        infeasible = 0
        for system in systems:
            before = (lp.stats["pivots"], lp_reference.stats["pivots"], dict(steps))
            got = find_vertex(system)
            expected = lp_reference.find_vertex(system)
            assert got == expected, dump_system(system)
            assert lp.stats["pivots"] - before[0] == lp_reference.stats["pivots"] - before[1]
            assert steps["int"] - before[2]["int"] == steps["ref"] - before[2]["ref"]
            if got is None:
                infeasible += 1
            else:
                assert all(type(c) is int for c in got)
        assert 0 < infeasible < len(systems)
        assert steps["int"] > len(systems)

    def test_non_integral_vertex_comes_back_as_fractions(self):
        # under x(E) = 2, x(ab), x(ac), x(ad) <= 1 force x(a) <= 1/2, and
        # x(E - e) <= 2 keeps every coordinate nonnegative
        system = lp.ConstraintSystem(
            names=("a", "b", "c", "d"),
            ineqs=((0b0011, 1), (0b0101, 1), (0b1001, 1))
            + tuple((0b1111 ^ 1 << i, 2) for i in range(4)),
            eqs=((0b1111, 2),),
        )
        half = (Fraction(1, 2),) * 4
        assert find_vertex(system) == lp_reference.find_vertex(system) == half

    def test_repeated_rows_take_the_reference_steps(self, monkeypatch):
        # lp_reference keeps every copy of a repeated row, the kernel the first
        # one; a built system repeats x(E) <= f(E) three times, -x(E) <= -f(E)
        # twice and t >= 0 twice (through x(empty) <= 0), and the hand-built
        # ones repeat inequalities and equalities next to, after and before
        # their twins, and x(U) <= f(U), x(U) <= g(U) wherever f(U) = g(U)
        systems = [intersection(u23(), u23())]
        for _, f, g in intersection_pairs(25, 6161):
            built = intersection(f, g)
            names, ineqs, eqs = built.names, built.ineqs, built.eqs
            systems += [
                built,
                lp.ConstraintSystem(names, ineqs + ineqs, eqs),
                lp.ConstraintSystem(names, tuple(row for row in ineqs for _ in "ab"), eqs + eqs),
                lp.ConstraintSystem(names, ineqs[::-1] + ineqs[::3], eqs[:1] * 3),
                lp.ConstraintSystem(names, tuple(enumerate(f.values)) + tuple(enumerate(g.values)),
                                    eqs[::-1]),
            ]
        assert_reference_steps(monkeypatch, systems)

    def test_small_scope_vertex_systems_take_the_reference_steps(self, monkeypatch):
        # the vertex systems of every w in 2 B_f, for every 40th small-scope table
        engine = sys.modules["polybase.decompose"]
        vertex = engine._integer_vertex
        systems = {}

        def recording(ground, f_values, g_values, empty):
            systems.setdefault((tuple(f_values), tuple(g_values)), ground)
            return vertex(ground, f_values, g_values, empty)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_integer_vertex", recording)
            for f, _ in small_scope()[::40]:
                points = enumerate_base_points(f).points
                for w in {tuple(map(sum, zip(a, b)))
                          for a, b in itertools.combinations_with_replacement(points, 2)}:
                    decompose(f, w, 2)
        assert len(systems) == 365
        assert_reference_steps(monkeypatch, [build_intersection_system(ground, *tables)
                                             for tables, ground in systems.items()])

    def test_row_reductions_over_the_engine_systems_are_pinned(self, monkeypatch):
        # a row is reduced when its slack first reaches 0, and once more in
        # the scan in row order that gives Bland's rule its first working set
        systems = [build_intersection_system(*t) for t in engine_pairs(monkeypatch, 9091)]
        calls = 0
        reduce_row = lp._reduce_row

        def counted(*args):
            nonlocal calls
            calls += 1
            return reduce_row(*args)

        monkeypatch.setattr(lp, "_reduce_row", counted)
        for system in systems:
            find_vertex(system)
        assert (len(systems), calls) == (160, 4642)


class TestAssertIntegral:
    def test_accepts_integers(self):
        assert assert_integral((Fraction(1), Fraction(1), Fraction(0))) == (1, 1, 0)

    def test_rejects_fractions_with_dump(self):
        system = intersection(u12(), u12())
        with pytest.raises(InvariantViolation, match="coordinate 1/2") as err:
            assert_integral((Fraction(1, 2), Fraction(1, 2)), system)
        assert err.value.dump is not None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_non_finite_coordinates(self, bad):
        lp.reset_stats()
        with pytest.raises(UsageError, match="finite"):
            assert_integral((Fraction(1), bad))
        assert lp.stats["nonintegral_vertices"] == 0 and lp.stats["integral_vertices"] == 0

    def test_corpus_vertices_integral(self):
        rng = random.Random(29)
        for _, f in tiny_instances():
            x = tuple(3 * v for v in _greedy(f, rng))
            mirror = f.dual().scale(2).shift(x)
            system = intersection(f, mirror)
            v = find_vertex(system)
            assert v is not None
            point = assert_integral(v, system)
            assert all(isinstance(c, int) for c in point)


class TestAffineRank:
    def test_two_points_rank_one(self):
        assert affine_rank([(1, 0), (0, 1)]) == 1

    def test_hypersimplex_dimension(self):
        from polybase import UniformRank

        pts = list(enumerate_base_points(UniformRank(ground(4), 2)))
        assert len(pts) == 6
        assert affine_rank(pts) == 3

    def test_single_point(self):
        assert affine_rank([(5, 7)]) == 0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            affine_rank([])


class TestDump:
    def test_readable_lines(self):
        system = intersection(u12(), u12())
        text = dump_system(system)
        assert "x({a}) <= 1" in text
        assert "x({a,b}) == 1" in text

class TestStats:
    def test_counters_move(self):
        lp.reset_stats()
        system = intersection(u12(), u12())
        v = find_vertex(system)
        assert_integral(v, system)
        assert lp.stats["vertices_found"] == 1
        assert lp.stats["integral_vertices"] == 1
        assert lp.stats["nonintegral_vertices"] == 0


def _greedy(f, rng):
    order = list(range(f.ground.n))
    rng.shuffle(order)
    from polybase import greedy_vertex

    return greedy_vertex(f, order)
