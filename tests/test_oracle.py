"""Unit tests for the exhaustive oracles."""

import random
from fractions import Fraction

import pytest

from corpus import ground, k3, random_table, tiny_instances, u12, u23, u24
from polybase import (
    BudgetExceeded,
    UniformRank,
    UsageError,
    cr_exact,
    enumerate_base_points,
    enumerate_vertices,
    in_base_polytope,
    min_decomposition_size,
)


class TestEnumerateBasePoints:
    def test_u12(self):
        assert tuple(enumerate_base_points(u12())) == ((0, 1), (1, 0))

    def test_hypersimplex(self):
        pts = list(enumerate_base_points(u24()))
        assert len(pts) == 6
        assert all(sum(p) == 2 and set(p) <= {0, 1} for p in pts)

    def test_k3_spanning_trees(self):
        assert tuple(enumerate_base_points(k3())) == (
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        )

    def test_budget(self):
        f = u12().scale(10_000)
        with pytest.raises(BudgetExceeded):
            enumerate_base_points(f)


class TestEnumerateVertices:
    def test_u23(self):
        assert len(enumerate_vertices(u23())) == 3

    def test_single_element(self):
        assert len(enumerate_vertices(UniformRank(ground(1), 1))) == 1

    def test_matroid_vertices_equal_integer_points(self):
        # for matroid ranks the integer points are exactly the bases
        for f in (u23(), u24(), k3()):
            assert enumerate_vertices(f).points == enumerate_base_points(f).points

    def test_vertices_subset_of_points(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            pts = set(enumerate_base_points(f))
            assert set(enumerate_vertices(f)) <= pts

    def test_factorial_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_vertices(UniformRank(ground(8), 2))


class TestConstructionIdentities:
    def test_dual_reflects(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            pts = {tuple(-v for v in p) for p in enumerate_base_points(f)}
            assert set(enumerate_base_points(f.dual())) == pts

    def test_shift_translates(self):
        rng = random.Random(41)
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            a = tuple(rng.randint(-2, 2) for _ in range(f.ground.n))
            shifted = {
                tuple(v + d for v, d in zip(p, a))
                for p in enumerate_base_points(f)
            }
            assert set(enumerate_base_points(f.shift(a))) == shifted

    def test_reduce_at_restricts(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            pts = list(enumerate_base_points(f))
            cap = min(p[0] for p in pts)  # nonempty restriction guaranteed
            expect = {p for p in pts if p[0] <= cap}
            got = set(enumerate_base_points(f.reduce_at(f.ground.elements[0], cap)))
            assert got == expect


class TestMinDecompositionSize:
    def test_u12_needs_both_vertices(self):
        assert min_decomposition_size(u12(), (1, 1), 2) == 2

    def test_k3_needs_three_trees(self):
        assert min_decomposition_size(k3(), (2, 2, 2), 3) == 3

    def test_multiple_of_one_vertex(self):
        assert min_decomposition_size(k3(), (4, 4, 0), 4) == 1

    def test_unreachable_target_reports_none(self):
        assert min_decomposition_size(u12(), (2, -1), 1) is None

    def test_k_budget(self):
        with pytest.raises(BudgetExceeded):
            min_decomposition_size(u12(), (7, 0), 7)


class TestCrExact:
    def test_examples(self):
        assert cr_exact(u12(), 2) == 2
        assert cr_exact(k3(), 3) == 3
        assert cr_exact(UniformRank(ground(1), 1), 2) == 1

    def test_monotone_in_k_max(self):
        f = u23()
        assert cr_exact(f, 1) <= cr_exact(f, 2) <= cr_exact(f, 3)

    def test_point_budget(self):
        with pytest.raises(BudgetExceeded):
            cr_exact(UniformRank(ground(8), 2), 2)

    def test_never_exceeds_dimension_bound(self):
        from polybase import dimension

        for _, f in tiny_instances():
            if f.ground.n > 3:
                continue
            assert cr_exact(f, 3) <= dimension(f) + 1


@pytest.mark.parametrize("k", [1.5, 2.0, Fraction(2), True])
def test_oracles_refuse_a_non_integer_multiplicity(k):
    message = f"multiplicity must be a positive integer, got {k!r}"
    with pytest.raises(UsageError) as err:
        min_decomposition_size(u12(), (1, 1), k)
    assert str(err.value) == message
    with pytest.raises(UsageError) as err:
        cr_exact(u12(), k)
    assert str(err.value) == message


class TestPointSetContract:
    def test_sorted_and_deduplicated(self):
        pts = enumerate_base_points(u24())
        assert list(pts.points) == sorted(set(pts.points))
        assert (1, 1, 0, 0) in pts
        assert (2, 0, 0, 0) not in pts

    def test_all_points_are_members(self):
        rng = random.Random(43)
        f = random_table(ground(3), rng)
        for p in enumerate_base_points(f):
            assert in_base_polytope(f, p)
