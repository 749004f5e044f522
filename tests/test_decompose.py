"""Unit tests for splitting, merging and the decomposition engine."""

import hashlib
import itertools
import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybase.core as core
import terms_reference

from corpus import (
    acceptance_corpus,
    flat_corpus,
    ground,
    k3,
    part11,
    random_table,
    sample_target,
    small_scope,
    tiny_instances,
    u12,
    u23,
)
from polybase import (
    DecompositionTrace,
    GroundSet,
    InvariantViolation,
    SubmodularFn,
    TableFn,
    UniformRank,
    UsageError,
    WeightedDecomposition,
    decompose,
    dimension,
    enumerate_base_points,
    face_structure,
    greedy_vertex,
    in_base_polytope,
    merge_direct_sum,
    min_decomposition_size,
    replay,
    split_into_k_bases,
    verify,
)
from polybase.cli import certificate_dict, to_json
from polybase.core import DualFn, ScaleFn, ShiftFn, _positions, subset_sums
from polybase.instance import parse_fn, trace_dict
from polybase.polytope import FaceStructure, _chain_positions, _face_chain


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


@pytest.mark.parametrize("run", [
    lambda: decompose(k3(), (2, 2, 2), 3),
    lambda: split_into_k_bases(k3(), (2, 2, 2), 3),
], ids=["decompose-split", "split_into_k_bases"])
def test_empty_vertex_step_carries_its_system(empty_vertex_step, run):
    # g's level is raised, so the step has no vertex; the fault carries its system
    with pytest.raises(InvariantViolation, match="empty") as err:
        run()
    lines = err.value.dump.splitlines()
    assert len(lines) == 2 * 2**3 + 2
    assert all(line.startswith("x({") and (" <= " in line or " == " in line) for line in lines)


def test_engine_hands_each_query_the_sums_of_its_point(monkeypatch):
    # the polytope kernels trust the sums they are handed, and the engine
    # hands every one: each must be the subset sums of its point, the target
    # for membership, x for a face and the last part for a split's residue
    engine = sys.modules["polybase.decompose"]
    handed = {name: [] for name in ("_first_violation", "_face_chain", "_in_base")}

    def recording(name):
        kernel = getattr(engine, name)

        def wrapped(*args):
            handed[name].append(args)
            return kernel(*args)
        return wrapped

    def taken(name):
        calls, handed[name] = handed[name], []
        return calls

    for name in handed:
        monkeypatch.setattr(engine, name, recording(name))
    rng = random.Random(62)
    splits = faces = residues = 0
    for _, f in acceptance_corpus()[::10] + flat_corpus():
        k = rng.randint(1, 6)
        w = sample_target(f, k, rng)
        _, trace = decompose(f, w, k)
        splits += len(_collect(trace, "split"))
        assert [list(sums) for sums, _ in taken("_first_violation")] == [subset_sums(w)]
        for x, sums, _ in taken("_face_chain"):
            assert list(sums) == subset_sums(x)
            faces += 1
        assert taken("_in_base") == []
        if f.ground.n <= 5:
            k = rng.randint(2, 4)
            x = sample_target(f, k, rng)
            parts = split_into_k_bases(f, x, k)
            assert len(parts) == k
            assert [list(sums) for sums, _ in taken("_first_violation")] == [subset_sums(x)]
            assert [list(sums) for sums, _ in taken("_in_base")] == [subset_sums(parts[-1])]
            residues += 1
    assert splits and faces and residues, (splits, faces, residues)


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
        assert merge_direct_sum([part]) == part

    def test_single_raw_part_comes_back_normalized(self):
        # built by the raw constructor: a repeated point, terms out of order
        terms = ((1, (1, 0)), (1, (0, 1)), (1, (1, 0)))
        raw = WeightedDecomposition(terms, (2, 1), 3)
        merged = merge_direct_sum([raw])
        assert merged == WeightedDecomposition.from_terms(terms, (2, 1), 3)
        assert merged.terms == ((1, (0, 1)), (2, (1, 0)))

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

    def test_matches_the_bisect_interleave(self):
        rng = random.Random(72)
        for _ in range(300):
            k = rng.randint(1, 30)
            parts = []
            for _ in range(rng.randint(2, 4)):
                weights = _random_composition(k, rng)
                points = _distinct_points(len(weights), rng.randint(1, 3), rng)
                parts.append(wd(list(zip(weights, points)), k))
            combined = terms_reference.interleave([list(p.terms) for p in parts], k)
            old = [(wt, sum(combo, ())) for wt, combo in combined]
            target = sum((p.target for p in parts), ())
            assert merge_direct_sum(parts) == WeightedDecomposition.from_terms(old, target, k)

    @pytest.mark.parametrize("weight", [-1, 0, True])
    def test_refuses_a_term_weight_that_is_not_a_positive_int(self, weight):
        # a part built by the raw constructor: its weights still total k = 2
        bad = WeightedDecomposition(((2 - weight, (1,)), (weight, (0,))), (2 - weight,), 2)
        with pytest.raises(UsageError,
                           match=f"term weight must be a positive integer, got {weight!r}$"):
            merge_direct_sum([bad, wd([(2, (5,))], 2)])


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
        assert trace_dict(f, t1) == trace_dict(f, t2)


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

    def test_membership_shares_no_kernel_with_the_engine(self, monkeypatch):
        # the engine's membership kernel cut to its level test must not pass two
        # points of the right level that break x({b}) <= 1 and x({a}) <= 1
        monkeypatch.setattr(sys.modules["polybase.polytope"], "_in_base",
                            lambda sums, values: sums[-1] == values[-1])
        dec = WeightedDecomposition.from_terms([(1, (0, 2, 0, 0)), (1, (2, 0, 0, 0))],
                                               (2, 2, 0, 0), 2)
        assert verify(UniformRank(ground(4), 2), dec) == (False, [
            "point (0, 2, 0, 0) is not in the base polytope",
            "point (2, 0, 0, 0) is not in the base polytope"])

    def test_non_integer_points_refused(self):
        with pytest.raises(UsageError, match="integer entries"):
            verify(
                UniformRank(ground(2), 1),
                WeightedDecomposition.from_terms([(2, (0.5, 0.5))], (1, 1), 2),
            )

    def test_non_integer_certificates_reported(self):
        f = UniformRank(ground(3), 2)
        half = Fraction(1, 2)
        bases = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        ones = tuple((1, b) for b in bases)
        cases = [
            (WeightedDecomposition(tuple((half, b) for b in bases), (1, 1, 1), Fraction(3, 2)),
             ["multiplicity Fraction(3, 2) is not a positive integer"]
             + ["weight Fraction(1, 2) is not an integer"] * 3),
            (WeightedDecomposition((), (), 0),
             ["multiplicity 0 is not a positive integer", "no terms",
              "target () is not 3 integers", "target sum mismatch: (0, 0, 0) != ()"]),
            (WeightedDecomposition(((True, (1, 1, 0)),), (1, 1, 0), 1),
             ["weight True is not an integer"]),
            # malformed certificates are reported too, not raised on
            (WeightedDecomposition(((1, [0, 1, 1]),) + ones[1:], (2, 2, 2), 3),
             ["term (1, [0, 1, 1]) is not a (weight, point tuple) pair"]),
            (WeightedDecomposition(((None, (0, 1, 1)),) + ones[1:], (2, 2, 2), 3),
             ["weight None is not an integer"]),
            (WeightedDecomposition(ones, None, 3),
             ["target None is not 3 integers", "target sum mismatch: (2, 2, 2) != None"]),
            (WeightedDecomposition(None, (2, 2, 2), 3), ["terms None are not a tuple or list"]),
            (WeightedDecomposition(((1, (0, 1, 1), 0),) + ones[1:], (2, 2, 2), 3),
             ["term (1, (0, 1, 1), 0) is not a (weight, point tuple) pair"]),
        ]
        for dec, failures in cases:
            assert verify(f, dec) == (False, failures)

    @pytest.mark.parametrize("k", [1.0, True, Fraction(1), 0])
    def test_from_terms_refuses_a_multiplicity_that_is_not_a_positive_int(self, k):
        with pytest.raises(UsageError) as err:
            WeightedDecomposition.from_terms([(1, (1, 0))], (1, 0), k)
        assert str(err.value) == f"multiplicity must be a positive integer, got {k!r}"

    @pytest.mark.parametrize("terms, target, message", [
        # each weight and point is checked before equal points merge
        ([(1, (1, 1)), (1, (1, 1.0))], (2, 2), "term point must have integer entries, got 1.0"),
        ([(True, (1, 1)), (1, (1, 1))], (2, 2), "term weight must be a positive integer, got True"),
        ([(1, (1, 1)), (True, (1, 1))], (2, 2), "term weight must be a positive integer, got True"),
        ([(2, (1, 1), 0)], (2, 2), "a term must be a (weight, point) pair, got (2, (1, 1), 0)"),
        (None, (2, 2), "terms must be (weight, point) pairs, got None"),
        ([(2, (1, 1))], None, "target must be a sequence of integers, got None"),
    ], ids=["float-entry-merged", "bool-weight-first", "bool-weight-merged", "triple",
            "no-terms-list", "no-target"])
    def test_from_terms_refuses_malformed_terms_in_any_order(self, terms, target, message):
        with pytest.raises(UsageError) as err:
            WeightedDecomposition.from_terms(terms, target, 2)
        assert str(err.value) == message

    @pytest.mark.parametrize("point", [(1, 1, 0, 0), (1, 1)])
    def test_points_of_the_wrong_length_refused(self, point):
        dec = WeightedDecomposition(((1, point),), (1, 1, 0), 1)
        with pytest.raises(UsageError, match=f"vector has length {len(point)}, expected 3"):
            verify(u23(), dec)

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

    @pytest.mark.parametrize("tamper", [
        "block_child_w", "block_child_k", "leaf_w", "split_parts",
        "lost_child", "unknown_case", "point_face_as_face_drop", "point_face_as_direct_sum",
        "split_children_reversed",
    ])
    def test_tampered_inner_node_rejected(self, tamper):
        # a forced split of k3: the root splits into two point faces of leaves
        dec, trace = decompose(k3(), (2, 2, 2), 3)
        block = _collect(trace, "point_face")[0]
        left, right = _collect(trace, "split")[0].children
        leaf = _collect(trace, "leaf")[0]
        if tamper == "block_child_w":
            block.children[0].w = _bump(block.children[0].w, 0, 1)
        elif tamper == "block_child_k":
            block.children[0].k += 1
        elif tamper == "leaf_w":
            leaf.w = _bump(leaf.w, 0, leaf.k)
        elif tamper == "split_parts":
            left.w, right.w = _bump(left.w, 0, 1), _bump(right.w, 0, -1)
        elif tamper == "lost_child":
            block.children.pop()
        elif tamper == "unknown_case":
            block.case = "mystery"
        elif tamper == "point_face_as_face_drop":
            # the children still sum up, but below a split the recursion
            # builds only point_face nodes, so the case rule refuses it
            block.case = "face_drop"
        elif tamper == "point_face_as_direct_sum":
            block.case = "direct_sum"
        else:
            trace.children.reverse()
        strict = ("point_face_as_face_drop", "point_face_as_direct_sum", "split_children_reversed")
        error = InvariantViolation if tamper in strict else (InvariantViolation, UsageError)
        with pytest.raises(error):
            replay(trace)

    @pytest.mark.parametrize("field, value", [
        ("w", None), ("w", [2]), ("w", ("2",)), ("w", (True,)),
        ("k", "x"), ("k", 0), ("k", 2.0), ("k", None),
        ("children", None), ("children", "ab"), ("children", [None]),
    ])
    def test_wrong_typed_node_field_rejected(self, field, value):
        # a field of the wrong type is refused before any arithmetic reads it
        node = DecompositionTrace("leaf", ("a",), (2,), 2)
        assert replay(node).terms == ((2, (1,)),)
        setattr(node, field, value)
        with pytest.raises(InvariantViolation, match=f"trace node {field}"):
            replay(node)
        # below a block node and below a split, whose checks add and compare
        for inner in (lambda t: _collect(t, "leaf")[0],
                      lambda t: _collect(t, "split")[0].children[0]):
            _, trace = decompose(k3(), (2, 2, 2), 3)
            setattr(inner(trace), field, value)
            with pytest.raises(InvariantViolation, match=f"trace node {field}"):
                replay(trace)

    def test_wrong_typed_leaf_records_rejected(self):
        for node in (DecompositionTrace("leaf", ("a",), None, 2),
                     DecompositionTrace("leaf", ("a",), (2,), "x")):
            with pytest.raises(InvariantViolation):
                replay(node)

    @pytest.mark.parametrize("case", ["leaf", "direct_sum", "point_face", "split"])
    def test_relabelled_face_drop_root_rejected(self, case):
        for target in ((3, 3, 0), (3, 0, 3)):
            dec, trace = decompose(k3(), target, 3)
            assert trace.case == "face_drop" and trace.dim == 2 and replay(trace) == dec
            trace.case = case
            if (target, case) == ((3, 3, 0), "direct_sum"):
                # the known limit (README, trace paragraph): the face's blocks
                # {a}, {b}, {c} rise, so the trace is node for node a direct_sum
                # trace of the modular function with those levels, which no check
                # without f can refuse; it replays, and its derived dim drops to 0.
                # At (3, 0, 3) the chain steps to {a, c} before {b}, which no
                # direct_sum does.
                assert replay(trace) == dec and trace.dim == 0
                continue
            with pytest.raises(InvariantViolation):
                replay(trace)

    @pytest.mark.parametrize("case", ["leaf", "face_drop", "point_face", "split"])
    def test_relabelled_direct_sum_root_rejected(self, case):
        f = TableFn(ground(4), [0, 1, 1, 1, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3])
        dec, trace = decompose(f, (1, 0, 1, 1), 1)
        assert trace.case == "direct_sum" and replay(trace) == dec
        trace.case = case
        with pytest.raises(InvariantViolation):
            replay(trace)

    @pytest.mark.parametrize("face", [5, "x"])
    def test_block_node_face_that_is_not_a_face_structure_rejected(self, face):
        # a block node records its face by its chain alone
        f = TableFn(ground(4), [0, 1, 1, 1, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3])
        _, trace = decompose(f, (1, 0, 1, 1), 1)
        assert trace.case == "direct_sum"
        trace.chain = face
        with pytest.raises(InvariantViolation, match="corrupt block node"):
            replay(trace)

    @pytest.mark.parametrize("tamper", [
        "position_out_of_range", "position_not_an_int", "positions_of_the_other_block",
        "chain_off_its_blocks", "ground_not_a_ground_set",
    ])
    def test_inconsistent_face_rejected(self, tamper):
        # a block node's face is its chain, whose steps give the positions,
        # and the root's names are its ground: each is checked by arithmetic
        # before any block is read through it
        dec, trace = decompose(part11(), (2, 0, 1, 1), 2)
        assert trace.case == "direct_sum" and trace.chain == (0, 0b0011, 0b1111)
        assert replay(trace) == dec
        field, value, message = {
            "position_out_of_range": ("chain", (0, 0b0011, 0b11011), "corrupt block node"),
            "position_not_an_int": ("chain", (0, "x", 0b1111), "corrupt block node"),
            "positions_of_the_other_block": ("chain", (0, 0b1100, 0b1111), "rising order"),
            "chain_off_its_blocks": ("chain", (0, 0b0101, 0b1111), "block child"),
            "ground_not_a_ground_set": ("ground", part11().ground, "trace ground"),
        }[tamper]
        setattr(trace, field, value)
        with pytest.raises(InvariantViolation, match=message):
            replay(trace)

    @pytest.mark.parametrize("names", [("p", "q"), ["a", "b", "c", "d"], ("a", "b", "c", 4),
                                       ("a", "a", "c", "d"), ("a", "b", "c", "d", "e"), None])
    def test_root_ground_that_is_not_len_w_names_rejected(self, names):
        dec, trace = decompose(part11(), (2, 0, 1, 1), 2)
        assert replay(trace) == dec
        trace.ground = names
        with pytest.raises(InvariantViolation, match="trace ground"):
            replay(trace)

    @pytest.mark.parametrize("tamper", ["not_rising", "dropped_step", "swapped_steps",
                                        "ends_short"])
    def test_chain_tampers_rejected_at_every_block_node(self, tamper):
        rng = random.Random(74)
        tampered = set()
        for _, f in acceptance_corpus()[::8] + flat_corpus()[::4]:
            k = rng.randint(1, 8)
            dec, trace = decompose(f, sample_target(f, k, rng), k)
            for node in _nodes(trace):
                if node.case not in ("direct_sum", "face_drop", "point_face"):
                    continue
                chain = node.chain
                assert len(chain) >= 3  # at least two blocks at every block node
                if tamper == "not_rising":
                    node.chain = (0, 0) + chain[2:]
                elif tamper == "dropped_step":
                    node.chain = chain[:1] + chain[2:]
                elif tamper == "swapped_steps":
                    node.chain = chain[:1] + (chain[2], chain[1]) + chain[3:]
                else:  # the last step loses its top element
                    top = (chain[-1] ^ chain[-2]).bit_length() - 1
                    node.chain = chain[:-1] + (chain[-1] ^ (1 << top),)
                with pytest.raises(InvariantViolation, match="corrupt block node"):
                    replay(trace)
                node.chain = chain
                tampered.add(node.case)
            assert replay(trace) == dec
        assert tampered == {"direct_sum", "face_drop", "point_face"}

    def test_nodes_hold_no_function_and_pickle(self):
        rng = random.Random(1)
        for _, f in acceptance_corpus() + flat_corpus():
            k = rng.randint(1, 25)
            dec, trace = decompose(f, sample_target(f, k, rng), k)
            for node in _nodes(trace):
                slots = [getattr(node, slot) for slot in DecompositionTrace.__slots__]
                assert not any(isinstance(value, SubmodularFn) for value in slots)
            again = pickle.loads(pickle.dumps(trace))
            assert replay(again) == dec and trace_dict(f, again) == trace_dict(f, trace)

    def test_printed_names_are_the_roots_at_each_nodes_positions(self):
        # positions by a plain bit loop: a split's children keep their
        # parent's, and a block's child takes the parent's at the block's bits
        def walk(node, doc, positions):
            yield doc, positions
            chain = node.chain or ()
            subs = [positions] * 2 if node.case == "split" else [
                [positions[p] for p in range(len(positions)) if (cur ^ prev) >> p & 1]
                for prev, cur in zip(chain, chain[1:])
            ]
            for child, child_doc, sub in zip(node.children, doc.get("children", []), subs,
                                             strict=True):
                yield from walk(child, child_doc, sub)

        rng = random.Random(75)
        printed = 0
        for _, f in acceptance_corpus() + flat_corpus():
            k = rng.randint(1, 25)
            _, trace = decompose(f, sample_target(f, k, rng), k)
            names = f.ground.elements
            for doc, positions in walk(trace, trace_dict(f, trace), list(range(f.ground.n))):
                assert doc["ground"] == [names[p] for p in positions]
                printed += 1
        assert printed > 1000

    def test_inner_nodes_print_names_read_off_the_root(self):
        # below the root a node holds no names, so none it is handed is printed
        _, trace = decompose(part11(), (2, 0, 1, 1), 2)
        doc = trace_dict(part11(), trace)
        assert [child["ground"] for child in doc["children"]] == [["a", "b"], ["c", "d"]]
        for node in _nodes(trace)[1:]:
            node.ground = ("Za", "Zb")
        assert trace_dict(part11(), trace) == doc

    @pytest.mark.parametrize("names", [("a", "b", "c", "d"), ("c", "b", "a"), ("x", "y", "z")])
    def test_trace_dict_refuses_a_function_on_another_ground(self, names):
        _, trace = decompose(k3(), (2, 2, 2), 3)
        with pytest.raises(UsageError, match="trace ground"):
            trace_dict(UniformRank(GroundSet(names), 2), trace)

    def test_serializes_to_json(self):
        _, trace = decompose(k3(), (3, 2, 1), 3)
        doc = trace_dict(k3(), trace)
        text = json.dumps(doc, sort_keys=True)
        assert '"case"' in text
        parsed = json.loads(text)
        assert parsed["case"] in ("leaf", "direct_sum", "face_drop", "split")
        assert parsed["w"] == [3, 2, 1]

    def test_chain_holds_masks_and_serializes_names(self):
        f = TableFn(ground(4), [0, 1, 1, 1, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3])
        _, trace = decompose(f, (1, 0, 1, 1), 1)
        assert trace.case == "direct_sum"
        assert trace.chain == (0, 0b0011, 0b1111)
        assert trace_dict(f, trace)["chain"] == [[], ["a", "b"], ["a", "b", "c", "d"]]

    def test_split_node_records_parts(self):
        _, trace = decompose(k3(), (2, 2, 2), 3)
        assert trace.case == "split", "expected a split at the root of a forced 3-term run"
        doc = trace_dict(k3(), trace)
        assert doc["case"] == "split" and doc["e"] == "a"
        assert tuple(a + b for a, b in zip(doc["x1"], doc["x2"])) == trace.w
        assert "fn_left" in doc and "fn_right" in doc

    def test_trace_functions_parse_back_to_vertex_tables(self, monkeypatch):
        # a split prints its two vertex-step operands and a face_drop the
        # capped function it factors; parsed back against the root ground
        # (nodes below the root print block restrictions of f), a split's
        # pair is the two tables the vertex step read, in call order, and a
        # face_drop's, times the node's k, the table whose face the engine found
        engine = sys.modules["polybase.decompose"]
        vertex, face_of = engine._integer_vertex, engine._face_chain
        read, faces = [], []

        def recording(ground, f_values, g_values, empty):
            read.append((tuple(f_values), tuple(g_values)))
            return vertex(ground, f_values, g_values, empty)

        def face_recording(x, sums, kh):
            chain = face_of(x, sums, kh)
            faces.append((chain, tuple(kh)))
            return chain

        monkeypatch.setattr(engine, "_integer_vertex", recording)
        monkeypatch.setattr(engine, "_face_chain", face_recording)
        rng = random.Random(60)
        runs = [(k3(), (2, 2, 2), 3)]
        for _, f in tiny_instances() + flat_corpus():
            k = rng.randint(1, 6)
            runs.append((f, sample_target(f, k, rng), k))
        seen = {"split": 0, "face_drop": 0, "block_restrict": 0}
        for f, w, k in runs:
            read.clear()
            faces.clear()
            _, trace = decompose(f, w, k)
            # the engine finds each face_drop's and point_face's face in pre-order
            factored = [node for node in _nodes(trace) if node.case in ("face_drop", "point_face")]
            assert len(factored) == len(faces)
            assert all(node.chain is chain for node, (chain, _) in zip(factored, faces))
            capped = {id(node): values for node, (_, values) in zip(factored, faces)}
            printed = []
            for node, doc in _with_dicts(trace, trace_dict(f, trace)):
                if node.case not in ("split", "face_drop"):
                    assert not {"fn_left", "fn_right", "fn_reduced"} & set(doc)
                    continue
                seen[node.case] += 1
                seen["block_restrict"] += '"block_restrict"' in json.dumps(doc)
                if node.case == "face_drop":
                    parsed = _parse_on(f, doc["fn_reduced"], doc)
                    assert tuple(node.k * v for v in parsed) == capped[id(node)]
                    continue
                assert doc["e"] == doc["ground"][0]
                assert tuple(a + b for a, b in zip(doc["x1"], doc["x2"])) == node.w
                operands = (doc["fn_left"], doc["fn_right"])
                printed.append(tuple(_parse_on(f, fn, doc) for fn in operands))
            assert printed == read
        assert all(seen.values()), seen

    def test_trace_bytes_are_pinned(self):
        # certificate plus --trace bytes over a fixed seeded set that
        # reaches all five node cases; an engine refactor must keep them
        rng = random.Random(1072)
        digest = hashlib.sha256()
        cases = set()
        for _, f in acceptance_corpus()[::5] + flat_corpus()[::5]:
            for _ in range(2):
                k = rng.randint(1, 6)
                w = sample_target(f, k, rng)
                dec, trace = decompose(f, w, k)
                digest.update(to_json(certificate_dict(f, w, k, dec, trace.dim, trace)).encode())
                digest.update(b"\n")
                cases.update(c for c in NODE_CASES if _collect(trace, c))
        assert cases == set(NODE_CASES)
        assert digest.hexdigest() == TRACE_DIGEST


NODE_CASES = ("leaf", "direct_sum", "face_drop", "split", "point_face")
TRACE_DIGEST = "b1e0b9bca057549afdfafaefb49e9a4ed8bff9ef765fd332761610ace43405e4"


SMALL_SCOPE_DIGEST = "965f67d60524a2381cf3c0f72bd4613f5702f62e2a21a1cbf327d584cd4df5a3"


def test_small_scope_decomposes_every_target():
    # bounded exhaustive testing: every submodular table on three elements
    # with f(empty) = 0 and values in -1..2 (1390 tables), one per orbit of
    # the relabellings of a, b, c (313 tables), and every w in k B_f for
    # k <= 2 as a sum of k base points; the terms of all of them are pinned,
    # so a kernel swap or a refactor that changes any certificate shows
    digest = hashlib.sha256()
    tables = runs = 0
    cases = set()
    for f, least in small_scope():
        if not least:
            continue
        tables += 1
        points = enumerate_base_points(f).points
        bound = face_structure(f).dim + 1
        for k in (1, 2):
            targets = {tuple(map(sum, zip(*combo)))
                       for combo in itertools.combinations_with_replacement(points, k)}
            for w in sorted(targets):
                dec, trace = decompose(f, w, k)
                ok, failures = verify(f, dec)
                assert ok, (f.values, w, k, failures)
                assert dec.distinct_count <= bound, (f.values, w, k)
                cases.update(node.case for node in _nodes(trace))
                digest.update(repr(dec.terms).encode())
                runs += 1
    assert (len(small_scope()), tables, runs) == (1390, 313, 9692)
    assert cases == set(NODE_CASES)
    assert digest.hexdigest() == SMALL_SCOPE_DIGEST


def _with_dicts(node, doc):
    """(trace node, its printed dict) pairs in pre-order."""
    yield node, doc
    for child, child_doc in zip(node.children, doc.get("children", []), strict=True):
        yield from _with_dicts(child, child_doc)


def _parse_on(f, fn_doc, doc):
    """The value table of a printed trace function, parsed on f's ground,
    whose ground is the names its node ``doc`` prints."""
    fn = parse_fn(f.ground, fn_doc)
    assert list(fn.ground.elements) == doc["ground"]
    return fn.values


def _bump(w, i, by):
    """w with ``by`` added at coordinate i."""
    return tuple(v + by * (j == i) for j, v in enumerate(w))


def _nodes(trace):
    """Every node of a trace, in pre-order."""
    out = [trace]
    for child in trace.children:
        out.extend(_nodes(child))
    return out


def _collect(trace, case):
    return [node for node in _nodes(trace) if node.case == case]


@pytest.fixture(scope="module")
def corpus_traces():
    """(name, decomposition, trace) for two seeded targets of every corpus instance."""
    rng = random.Random(71)
    out = []
    for name, f in acceptance_corpus() + flat_corpus():
        for _ in range(2):
            k = rng.randint(1, 8)
            out.append((name, *decompose(f, sample_target(f, k, rng), k)))
    return out


class TestTermsOffTheTrace:
    """``_terms`` reads a trace in one walk: the points come out in strictly
    decreasing lex order along the weight axis, so they are distinct with
    no merging, and a decomposition's terms are normalized once, in
    ``WeightedDecomposition.from_terms``."""

    def test_terms_match_the_per_node_oracle(self, corpus_traces):
        terms_of = sys.modules["polybase.decompose"]._terms
        for name, _, trace in corpus_traces:
            assert terms_of(trace) == terms_reference.terms(trace), name

    def test_every_node_yields_distinct_points(self, corpus_traces):
        # each node's subtree cuts its interval into its points, as many as
        # the per-node oracle lists for that node
        engine = sys.modules["polybase.decompose"]
        several = set()
        for name, dec, trace in corpus_traces:
            for node in _nodes(trace):
                cuts = engine._lay_out(node, 0, tuple(range(len(node.w))), [])
                assert len(cuts) + 1 == len(terms_reference.terms(node)), (name, node.case)
                if cuts:
                    several.add(node.case)
            terms = engine._terms(trace)
            points = [point for _, point in terms]
            assert all(a > b for a, b in zip(points, points[1:])), name
            # the root's terms are already distinct: sorting only reverses them
            assert dec.terms == tuple(reversed(terms))
        assert several == {"direct_sum", "face_drop", "split", "point_face"}

    def test_one_normalization_per_decompose(self, monkeypatch):
        build = WeightedDecomposition.from_terms.__func__
        calls = []

        def counted(cls, terms, target, multiplicity):
            calls.append(target)
            return build(cls, terms, target, multiplicity)

        monkeypatch.setattr(WeightedDecomposition, "from_terms", classmethod(counted))
        runs = [
            (UniformRank(ground(1), 1), (3,), 3, "leaf"),
            (u12(), (2, 0), 2, "face_drop"),
            (k3(), (2, 2, 2), 3, "split"),
            (part11(), (2, 0, 1, 1), 2, "direct_sum"),
        ]
        for f, w, k, case in runs:
            calls.clear()
            dec, trace = decompose(f, w, k)
            assert trace.case == case and calls == [w]
            calls.clear()
            assert replay(trace) == dec and calls == [w]

    def test_bound_is_checked_at_every_inner_node(self, monkeypatch):
        # a node's dim is read off its case, w and chain, so a node whose
        # terms exceed it is made by patching the dim of one node at a time
        terms_of = sys.modules["polybase.decompose"]._terms
        dim_of = DecompositionTrace.dim.fget
        low = []
        monkeypatch.setattr(DecompositionTrace, "dim",
                            property(lambda node: -1 if node in low else dim_of(node)))
        rng = random.Random(73)
        tampered = set()
        for _, f in tiny_instances() + flat_corpus()[:10]:
            k = rng.randint(2, 6)
            dec, trace = decompose(f, sample_target(f, k, rng), k)
            for node in _nodes(trace)[1:]:
                low.append(node)
                with pytest.raises(InvariantViolation, match="exceed the bound dim [+] 1 = 0"):
                    terms_of(trace)
                low.clear()
                tampered.add(node.case)
            assert replay(trace) == dec
        assert tampered == {"leaf", "face_drop", "split", "point_face"}


class TestScaledNodes:
    """Membership and faces of k B_f read f's own table, and the vertex step
    reads two value tables, so neither ``decompose`` nor ``split_into_k_bases``
    builds a scaled, dual or shifted node."""

    @pytest.fixture
    def mirror_builds(self, monkeypatch):
        built = []
        for cls in (ScaleFn, DualFn, ShiftFn):

            def counted(node, *args, _init=cls.__init__):
                built.append(type(node).__name__)
                _init(node, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        return built

    def test_face_drop_builds_no_scaled_node(self, mirror_builds):
        f = random_table(ground(6), random.Random(8))
        for k in (2, 4):
            w = tuple(k * v for v in greedy_vertex(f, (5, 2, 0, 4, 1, 3)))
            _, trace = decompose(f, w, k)
            assert trace.case == "face_drop"
        assert mirror_builds == []

    def test_split_builds_no_scaled_node(self, mirror_builds):
        f = random_table(ground(5), random.Random(21))
        for k, w in ((3, (1, 2, 1, -3, -1)), (4, (2, 0, 0, -4, 2))):
            _, trace = decompose(f, w, k)
            assert _collect(trace, "split") and _collect(trace, "face_drop")
        assert mirror_builds == []

    def test_split_into_k_bases_builds_no_scaled_node(self, mirror_builds):
        f = random_table(ground(5), random.Random(21))
        for k, w in ((3, (1, 2, 1, -3, -1)), (4, (2, 0, 0, -4, 2))):
            assert len(split_into_k_bases(f, w, k)) == k
        assert mirror_builds == []



class TestFactorOnce:
    """B_f factors once, at the root: the blocks of every face below are
    full-dimensional (see test_polytope.TestBlocksAreFullDimensional)."""

    @pytest.fixture
    def face_calls(self, monkeypatch):
        engine = sys.modules["polybase.decompose"]
        factor = engine.face_structure
        calls = []

        def counted(f):
            calls.append(f)
            return factor(f)

        monkeypatch.setattr(engine, "face_structure", counted)
        return calls

    def test_one_face_structure_per_decompose(self, face_calls):
        drop = random_table(ground(6), random.Random(8))
        split = random_table(ground(5), random.Random(21))
        runs = [
            (drop, tuple(2 * v for v in greedy_vertex(drop, (5, 2, 0, 4, 1, 3))), 2),
            (split, (1, 2, 1, -3, -1), 3),
            (split, (2, 0, 0, -4, 2), 4),
            (part11(), (1, 1, 1, 1), 2),
        ]
        cases = set()
        for f, w, k in runs:
            face_calls.clear()
            _, trace = decompose(f, w, k)
            assert face_calls == [f]
            cases.update(c for c in ("direct_sum", "face_drop", "split") if _collect(trace, c))
        assert cases == {"direct_sum", "face_drop", "split"}

    def test_no_direct_sum_below_the_root(self):
        rng = random.Random(61)
        roots = 0
        for _, f in tiny_instances() + flat_corpus():
            k = rng.randint(1, 6)
            _, trace = decompose(f, sample_target(f, k, rng), k)
            roots += trace.case == "direct_sum"
            for child in trace.children:
                assert not _collect(child, "direct_sum")
        assert roots >= 50


class TestLeaves:
    """A one-element block is a leaf whose level is read from its parent's
    table, so block tables are gathered only for blocks of two or more."""

    @pytest.fixture
    def block_builds(self, monkeypatch):
        engine = sys.modules["polybase.decompose"]
        gather = engine._block_values
        built = []

        def counted(values, a_prev, positions):
            built.append(positions)
            return gather(values, a_prev, positions)

        monkeypatch.setattr(engine, "_block_values", counted)
        return built

    def test_point_faces_build_no_block_function(self, block_builds):
        # w = k b at a vertex b: every block of the face below the root is
        # one element; a one-element ground is a leaf at the root
        f = random_table(ground(6), random.Random(8))
        for k in (1, 3):
            w = tuple(k * v for v in greedy_vertex(f, (5, 2, 0, 4, 1, 3)))
            dec, trace = decompose(f, w, k)
            assert len(_collect(trace, "leaf")) == 6 and replay(trace) == dec
        dec, trace = decompose(UniformRank(ground(1), 1), (3,), 3)
        assert trace.case == "leaf" and dec.terms == ((3, (1,)),)
        assert block_builds == []

    def test_block_functions_only_for_larger_blocks(self, block_builds):
        rng = random.Random(62)
        leaves = 0
        for _, f in tiny_instances() + flat_corpus():
            k = rng.randint(1, 6)
            dec, trace = decompose(f, sample_target(f, k, rng), k)
            assert replay(trace) == dec
            leaves += len(_collect(trace, "leaf"))
        assert block_builds and all(len(positions) >= 2 for positions in block_builds)
        assert leaves > len(block_builds)


def _corpus_runs(seed):
    """(f, w, k) over the acceptance corpus and flat_corpus(), k up to 25."""
    rng = random.Random(seed)
    runs = []
    for _, f in acceptance_corpus() + flat_corpus():
        k = rng.randint(1, 25)
        runs.append((f, sample_target(f, k, rng), k))
    return runs


class TestTablesBelowTheRoot:
    """Below the root the engine recurses on value tables: a cap is a table,
    a block's table one gather and a face its chain of masks."""

    def test_no_function_face_or_ground_below_the_root(self, monkeypatch):
        runs = _corpus_runs(77)
        # every node class reaches SubmodularFn.__init__, so its subclasses count too
        built = {SubmodularFn: [], FaceStructure: [], GroundSet: []}
        for cls, seen in built.items():

            def counted(obj, *args, _init=cls.__init__, _seen=seen, **kwargs):
                _init(obj, *args, **kwargs)
                _seen.append(obj)

            monkeypatch.setattr(cls, "__init__", counted)
        splits = blocks = 0
        for f, w, k in runs:
            for seen in built.values():
                seen.clear()
            _, trace = decompose(f, w, k)
            faces, grounds = built[FaceStructure], list(built[GroundSet])
            assert built[SubmodularFn] == []
            # the root's one face is B_f's own; a one-element root has none
            assert len(faces) == (f.ground.n > 1) and all(face.ground is f.ground for face in faces)
            # one ground per split, for its vertex step, on that node's names (pre-order)
            named = [doc["ground"] for node, doc in _with_dicts(trace, trace_dict(f, trace))
                     if node.case == "split"]
            assert [list(g.elements) for g in grounds] == named
            splits += len(named)
            blocks += sum(len(node.children) for node in _nodes(trace)[1:] if node.chain)
        assert splits > 200 and blocks > 1000, (splits, blocks)

    def test_gathers_and_positions_match_plain_loops(self, monkeypatch):
        # every block table the corpus gathers against a per-mask loop (also
        # at 2^70 times the values, less 3), and every chain step's positions
        # against a per-bit loop
        engine = sys.modules["polybase.decompose"]
        gather, gathered = engine._block_values, []

        def recording(values, a_prev, positions):
            table = gather(values, a_prev, positions)
            gathered.append((values, a_prev, positions, table))
            return table

        monkeypatch.setattr(engine, "_block_values", recording)
        chains = []
        for f, w, k in _corpus_runs(78):
            _, trace = decompose(f, w, k)
            chains += [(len(node.w), node.chain) for node in _nodes(trace) if node.chain]
        monkeypatch.undo()

        def plain_table(values, a_prev, positions):
            table = []
            for u in range(1 << len(positions)):
                mask = a_prev
                for j, p in enumerate(positions):
                    if u >> j & 1:
                        mask |= 1 << p
                table.append(values[mask] - values[a_prev])
            return table

        for values, a_prev, positions, table in gathered:
            assert table == plain_table(values, a_prev, positions)
            wide = [2**70 * v - 3 for v in values]
            assert gather(wide, a_prev, positions) == plain_table(wide, a_prev, positions)
        for n, chain in chains:
            steps = [cur ^ prev for prev, cur in zip(chain, chain[1:])]
            plain = tuple(tuple(p for p in range(n) if step >> p & 1) for step in steps)
            assert tuple(map(_positions, steps)) == _chain_positions(chain) == plain
        assert len(gathered) > 200 and len(chains) > 800, (len(gathered), len(chains))
        assert _positions.cache_info().maxsize == 1 << 12


def _node_functions(f, node):
    """(node, its function) for the face_drop and split nodes of a trace of f,
    each function rebuilt with the library's full reduce_at and block_restrict."""
    if node.case == "leaf":
        return
    e, q = f.ground.elements[0], node.w[0] // node.k
    if node.case == "split":
        yield node, f
        for child, cap in zip(node.children, (q + 1, q)):
            yield from _node_functions(f.reduce_at(e, cap), child)
        return
    if node.case == "face_drop":
        yield node, f
        f = f.reduce_at(e, q)
    for child, prev, cur in zip(node.children, node.chain, node.chain[1:]):
        yield from _node_functions(f.block_restrict(prev, cur ^ prev), child)


def test_engine_sweeps_element_0_once_per_binding_cap(monkeypatch):
    # the root passed the check, so of a node's caps only the one on e can
    # bind, and only below f({e}): the engine sweeps bit 0 once for each such
    # cap (q at a face_drop, q + 1 and q at a split) and nothing else
    halves = core._halves
    swept = []
    monkeypatch.setattr(core, "_halves", lambda size, s: swept.append(s) or halves(size, s))
    rng = random.Random(83)
    caps = binding = 0
    for _, f in acceptance_corpus()[::4]:
        k = rng.randint(1, 25)
        swept.clear()
        _, trace = decompose(f, sample_target(f, k, rng), k)
        sweeps = list(swept)
        expected = 0
        for node, fn in _node_functions(f, trace):
            q = node.w[0] // node.k
            node_caps = (q,) if node.case == "face_drop" else (q + 1, q)
            caps += len(node_caps)
            expected += sum(c < fn(1) for c in node_caps)
        assert sweeps == [1] * expected
        binding += expected
    assert 0 < binding < caps


def _outside(x, sums, kh):
    raise UsageError("outside")


def _one_block(x, sums, kh):
    return (0, len(kh) - 1)


def _short(x, sums, kh):
    """The true chain without its last entry, E."""
    return _face_chain(x, sums, kh)[:-1]


def _short_of_e(x, sums, kh):
    """The true chain, its last entry E less E's highest element."""
    chain = _face_chain(x, sums, kh)
    return chain[:-1] + (chain[-1] & ~(1 << chain[-1].bit_length() - 1),)


def _repeat(x, sums, kh):
    """The true chain with its first step repeated as an empty step."""
    chain = _face_chain(x, sums, kh)
    return chain[:2] + chain[1:]


def _no_superset(x, sums, kh):
    """The true chain with E - chain[1], no superset of chain[-2], before E."""
    chain = _face_chain(x, sums, kh)
    return chain[:-1] + (chain[-1] ^ chain[1], chain[-1])


class TestChainStep:
    """A face step re-checks what the theory promises: the derived point
    lies in its polytope, and its face factors as the case requires."""

    @pytest.mark.parametrize("face_of, message", [
        (_outside, "derived point left its polytope: outside"),
        (_one_block, "fixed element does not start the tight chain"),
        (_short, "face chain (0, 1) does not run from 0 to E"),
        (_short_of_e, "face chain (0, 1, 1) does not run from 0 to E"),
        (_repeat, "face chain (0, 1, 1, 3) does not rise strictly"),
        (_no_superset, "face chain (0, 1, 2, 3) does not rise strictly"),
    ])
    def test_face_drop(self, monkeypatch, face_of, message):
        assert decompose(u12(), (2, 0), 2)[1].case == "face_drop"
        monkeypatch.setattr(sys.modules["polybase.decompose"], "_face_chain", face_of)
        with pytest.raises(InvariantViolation) as err:
            decompose(u12(), (2, 0), 2)
        assert str(err.value) == message

    @pytest.mark.parametrize("face_of, message", [
        (_outside, "derived point left its polytope: outside"),
        (_one_block, "point face did not factor"),
        (_short_of_e, "face chain (0, 1, 3) does not run from 0 to E"),
        (_repeat, "face chain (0, 1, 1, 7) does not rise strictly"),
        (_no_superset, "face chain (0, 1, 6, 7) does not rise strictly"),
    ])
    def test_split(self, monkeypatch, face_of, message):
        assert decompose(k3(), (2, 2, 2), 3)[1].case == "split"
        monkeypatch.setattr(sys.modules["polybase.decompose"], "_face_chain", face_of)
        with pytest.raises(InvariantViolation) as err:
            decompose(k3(), (2, 2, 2), 3)
        assert str(err.value) == message

    def test_direct_sum(self, monkeypatch):
        # B_f's chain (0, 3, 15) with its first step repeated as an empty step
        assert decompose(part11(), (2, 0, 1, 1), 2)[1].case == "direct_sum"
        monkeypatch.setattr(sys.modules["polybase.decompose"], "face_structure",
                            lambda f: FaceStructure(f.ground, (0, 3, 3, 15)))
        with pytest.raises(InvariantViolation) as err:
            decompose(part11(), (2, 0, 1, 1), 2)
        assert str(err.value) == "face chain (0, 3, 3, 15) does not rise strictly"


@pytest.mark.parametrize("make, w, k, case", [
    (u12, (2, 0), 2, "face_drop"),
    (k3, (2, 2, 2), 3, "split"),
    (part11, (2, 0, 1, 1), 2, "direct_sum"),
])
def test_root_subset_sums_are_built_once(monkeypatch, make, w, k, case):
    from polybase.core import subset_sums

    built = []

    def counted(x):
        x = tuple(x)
        built.append(x)
        return subset_sums(x)

    for module in ("polybase.decompose", "polybase.polytope"):
        monkeypatch.setattr(sys.modules[module], "subset_sums", counted)
    assert decompose(make(), w, k)[1].case == case
    assert built.count(w) == 1


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
