"""Unit tests for splitting, merging and the decomposition engine."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    ground,
    k3,
    random_table,
    sample_target,
    tiny_instances,
    u12,
    u23,
)
from polybase import (
    InvariantViolation,
    TableFn,
    UniformRank,
    UsageError,
    WeightedDecomposition,
    decompose,
    dimension,
    enumerate_base_points,
    in_base_polytope,
    merge_direct_sum,
    min_decomposition_size,
    replay,
    split_into_k_bases,
    verify,
)


def brute_splits(f, x, k):
    """Oracle: all multisets of k base points summing to x."""
    pts = list(enumerate_base_points(f))
    found = set()
    for combo in itertools.combinations_with_replacement(pts, k):
        if tuple(map(sum, zip(*combo))) == tuple(x):
            found.add(combo)
    return found


class TestSplitIntoKBases:
    def test_u23_forced_split(self):
        result = split_into_k_bases(u23(), (2, 1, 1), 2)
        assert sorted(result) == [(1, 0, 1), (1, 1, 0)]
        # the brute-force oracle agrees this is the only multiset
        assert brute_splits(u23(), (2, 1, 1), 2) == {((1, 0, 1), (1, 1, 0))}

    def test_k_equals_one(self):
        assert split_into_k_bases(k3(), (0, 1, 1), 1) == [(0, 1, 1)]

    def test_k3_all_trees(self):
        result = split_into_k_bases(k3(), (2, 2, 2), 3)
        assert sorted(result) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert brute_splits(k3(), (2, 2, 2), 3) == {
            ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        }

    def test_soundness_random(self):
        rng = random.Random(61)
        for _, f in tiny_instances():
            k = rng.randint(2, 4)
            x = sample_target(f, k, rng)
            parts = split_into_k_bases(f, x, k)
            assert len(parts) == k
            assert tuple(map(sum, zip(*parts))) == x
            for p in parts:
                assert in_base_polytope(f, p)

    def test_membership_precondition(self):
        with pytest.raises(UsageError):
            split_into_k_bases(u23(), (4, 0, 0), 2)

    def test_submodularity_precondition(self):
        with pytest.raises(UsageError, match="not submodular"):
            split_into_k_bases(supermodular(), (2, 2, 2), 2)


def supermodular():
    """f(ab) = 3 > f(a) + f(b) = 2; every other pair is fine."""
    return TableFn(ground(3), [0, 1, 1, 3, 2, 3, 3, 3])


def wd(terms, k):
    target = tuple(
        sum(wt * p[i] for wt, p in terms) for i in range(len(terms[0][1]))
    )
    return WeightedDecomposition.from_terms(terms, target, k)


class TestMergeDirectSum:
    def test_breakpoint_interleaving(self):
        # points chosen so canonical term order matches the given order
        x1, x2 = (0, 1), (1, 0)
        y1, y2 = (5,), (7,)
        left = wd([(2, x1), (1, x2)], 3)   # prefixes {0, 2, 3}
        right = wd([(1, y1), (2, y2)], 3)  # prefixes {0, 1, 3}
        merged = merge_direct_sum([left, right])
        # breakpoints {0,1,2,3}: (x1,y1), (x1,y2), (x2,y2), each weight 1
        assert merged.terms == (
            (1, (0, 1, 5)),
            (1, (0, 1, 7)),
            (1, (1, 0, 7)),
        )
        assert merged.distinct_count == 3 <= 2 + 2 - 1

    def test_single_part_unchanged(self):
        part = wd([(2, (1, 0)), (1, (0, 1))], 3)
        assert merge_direct_sum([part]) is part

    def test_aligned_breakpoints_merge_to_one(self):
        left = wd([(4, (1, 0))], 4)
        right = wd([(4, (3,))], 4)
        merged = merge_direct_sum([left, right])
        assert merged.terms == ((4, (1, 0, 3)),)

    def test_multiplicity_mismatch(self):
        with pytest.raises(UsageError):
            merge_direct_sum([wd([(2, (1,))], 2), wd([(3, (1,))], 3)])

    def test_randomized_bound_and_resum(self):
        rng = random.Random(71)
        for _ in range(300):
            k = rng.randint(1, 30)
            parts = []
            total_terms = 0
            for p in range(rng.randint(1, 4)):
                weights = _random_composition(k, rng)
                points = _distinct_points(len(weights), rng.randint(1, 3), rng)
                parts.append(wd(list(zip(weights, points)), k))
                total_terms += len(weights)
            merged = merge_direct_sum(parts)
            assert merged.multiplicity == k
            assert merged.distinct_count <= total_terms - (len(parts) - 1)
            assert merged.target == tuple(
                itertools.chain.from_iterable(p.target for p in parts)
            )


def _random_composition(k, rng):
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, min(k - 1, 4))))
    return [b - a for a, b in zip([0] + cuts, cuts + [k])]


def _distinct_points(count, width, rng):
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randint(-5, 5) for _ in range(width)))
    return sorted(points)


class TestDecompose:
    def test_u12_pair(self):
        dec, _ = decompose(u12(), (1, 1), 2)
        assert dec.terms == ((1, (0, 1)), (1, (1, 0)))
        assert dec.distinct_count == dimension(u12()) + 1

    def test_k3_needs_three_trees(self):
        dec, _ = decompose(k3(), (2, 2, 2), 3)
        assert dec.distinct_count == 3 == dimension(k3()) + 1
        assert min_decomposition_size(k3(), (2, 2, 2), 3) == 3

    def test_single_vertex_multiple(self):
        dec, _ = decompose(k3(), (5, 5, 0), 5)
        assert dec.terms == ((5, (1, 1, 0)),)

    def test_bound_on_random_samples(self):
        rng = random.Random(83)
        for _, f in tiny_instances():
            k = rng.randint(1, 9)
            w = sample_target(f, k, rng)
            dec, trace = decompose(f, w, k)
            ok, failures = verify(f, dec)
            assert ok, failures
            assert dec.distinct_count <= dimension(f) + 1
            assert trace.dim == dimension(f)
            assert replay(trace) == dec

    def test_non_submodular_rejected_with_pair(self):
        with pytest.raises(UsageError) as err:
            decompose(supermodular(), (1, 1, 1), 1)
        assert "not submodular" in str(err.value)
        assert "A = {a}, B = {b}" in str(err.value)

    def test_membership_error_names_constraint(self):
        with pytest.raises(UsageError) as err:
            decompose(u23(), (4, 0, 0), 2)
        assert "x({a})" in str(err.value)

    def test_oracle_agreement_tiny(self):
        rng = random.Random(89)
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            if len(enumerate_base_points(f)) > 20:
                continue
            for k in (2, 3, 4):
                w = sample_target(f, k, rng)
                dec, _ = decompose(f, w, k)
                floor = min_decomposition_size(f, w, k)
                assert floor is not None
                assert floor <= dec.distinct_count <= dimension(f) + 1

    def test_determinism(self):
        f = k3()
        first, t1 = decompose(f, (3, 2, 1), 3)
        second, t2 = decompose(f, (3, 2, 1), 3)
        assert first == second
        assert t1.to_dict() == t2.to_dict()


class TestVerify:
    def test_accepts_engine_output(self):
        dec, _ = decompose(u23(), (2, 1, 1), 2)
        ok, failures = verify(u23(), dec)
        assert ok and not failures

    def test_tampered_weight_reports_sum_mismatch(self):
        dec, _ = decompose(u23(), (2, 1, 1), 2)
        bad = WeightedDecomposition(
            terms=((2, dec.terms[0][1]), dec.terms[1]),
            target=dec.target,
            multiplicity=dec.multiplicity,
        )
        ok, failures = verify(u23(), bad)
        assert not ok
        assert any("sum mismatch" in msg for msg in failures)

    def test_cardinality_bound_reported(self):
        # five distinct bases over a dim-3 polytope: valid sum, too many terms
        f = UniformRank(ground(4), 2)
        points = [
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        ]
        target = tuple(map(sum, zip(*points)))
        dec = WeightedDecomposition.from_terms(
            [(1, p) for p in points], target, 5
        )
        ok, failures = verify(f, dec)
        assert not ok
        assert any("cardinality bound exceeded" in msg for msg in failures)

    def test_foreign_point_reported(self):
        # right level, but (2,0,0) violates x({a}) <= 1
        bad = WeightedDecomposition.from_terms([(2, (2, 0, 0))], (4, 0, 0), 2)
        ok, failures = verify(k3(), bad)
        assert not ok
        assert any("not in the base polytope" in msg for msg in failures)


class TestTrace:
    def test_replay_equals_output(self):
        rng = random.Random(97)
        for _, f in tiny_instances():
            k = rng.randint(1, 6)
            w = sample_target(f, k, rng)
            dec, trace = decompose(f, w, k)
            assert replay(trace) == dec

    def test_tampered_trace_rejected(self):
        dec, trace = decompose(k3(), (2, 2, 2), 3)
        trace.w = (9, 9, 9)
        with pytest.raises((InvariantViolation, UsageError)):
            replay(trace)

    def test_serializes_to_json(self):
        _, trace = decompose(k3(), (3, 2, 1), 3)
        doc = trace.to_dict()
        text = json.dumps(doc, sort_keys=True)
        assert '"case"' in text
        parsed = json.loads(text)
        assert parsed["case"] in ("leaf", "direct_sum", "face_drop", "split")
        assert parsed["w"] == [3, 2, 1]

    def test_split_node_records_parts(self):
        _, trace = decompose(k3(), (2, 2, 2), 3)
        split_nodes = _collect(trace, "split")
        assert split_nodes, "expected at least one split in a forced 3-term run"
        node = split_nodes[0]
        assert node.e == "a"
        assert tuple(a + b for a, b in zip(node.x1, node.x2)) == node.w
        assert node.fn_left is not None and node.fn_right is not None


def _collect(trace, case):
    out = [trace] if trace.case == case else []
    for child in trace.children:
        out.extend(_collect(child, case))
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4), k=st.integers(1, 5))
def test_decompose_random_tables(seed, n, k):
    rng = random.Random(seed)
    f = random_table(ground(n), rng)
    w = sample_target(f, k, rng)
    dec, trace = decompose(f, w, k)
    ok, failures = verify(f, dec)
    assert ok, failures
    assert replay(trace) == dec
