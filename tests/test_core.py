"""Unit tests for the submodular function algebra."""

import ast
import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from operator import add, le
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybase.core as core
from corpus import (
    acceptance_corpus,
    coverage_table,
    cut_table,
    flat_corpus,
    ground,
    k3,
    random_instance,
    random_table,
    tiny_instances,
    u12,
    u23,
)
from polybase import (
    BlockRestrictFn,
    DualFn,
    GraphicRank,
    GroundSet,
    PartitionRank,
    ReduceAtFn,
    ReduceFn,
    ScaleFn,
    ShiftFn,
    TableFn,
    UniformRank,
    UsageError,
    decompose,
    is_matroid_rank,
    is_submodular,
    materialize,
)
from polybase.core import subset_sums


def brute_reduce(f, a, mask):
    """Independent evaluation of (f | a)(U): plain min over split subsets.

    f is any callable on masks; a has one entry per ground element.
    """
    best = None
    sub = mask
    while True:
        rest = mask ^ sub
        val = f(sub) + sum(a[i] for i in range(len(a)) if rest >> i & 1)
        if best is None or val < best:
            best = val
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return best


class TestEval:
    def test_uniform(self):
        f = u12()
        assert f(0b11) == 1
        assert f(0b01) == 1
        assert f(0) == 0

    def test_dual_by_hand(self):
        # f*({a}) = f({b}) - f(E) = 1 - 1 = 0
        assert u12().dual()(0b01) == 0

    def test_reduce_matches_brute_force(self):
        f = u23()
        a = (0, 1, 1)
        red = f.reduce(a)
        for mask in f.ground.subsets():
            assert red(mask) == brute_reduce(f, a, mask)
        assert red(0b111) == 2  # frozen from the brute-force loop above

    def test_shift_definition(self):
        f = u23()
        a = (3, -1, 2)
        sh = f.shift(a)
        for mask in f.ground.subsets():
            assert sh(mask) == f(mask) + sum(
                a[i] for i in range(3) if mask >> i & 1
            )

    def test_scale_consistency(self):
        f = k3()
        sc = f.scale(4)
        for mask in f.ground.subsets():
            assert sc(mask) == 4 * f(mask)

    def test_reduce_at_builds_capped_vector(self):
        f = u23()
        r = f.reduce_at("b", 0)
        # equivalent plain reduction: cap b at 0, others at f({e}) = 1
        expected = f.reduce((1, 0, 1))
        for mask in f.ground.subsets():
            assert r(mask) == expected(mask)

    def test_block_restrict_definition(self):
        f = k3()
        sub = f.block_restrict(0b001, 0b110)
        assert sub.ground.elements == ("b", "c")
        for mask in sub.ground.subsets():
            parent = 0b001 | (mask << 1)
            assert sub(mask) == f(parent) - f(0b001)
        # the sub-ground skips re-validation but is the same value object
        assert sub.ground == GroundSet(("b", "c"))
        assert hash(sub.ground) == hash(GroundSet(("b", "c")))

    def test_mask_out_of_range(self):
        with pytest.raises(UsageError):
            u12()(4)

    def test_empty_set_is_zero_everywhere(self):
        for _, f in tiny_instances():
            assert f(0) == 0


class TestChecks:
    def test_uniform_is_submodular(self):
        ok, pair = is_submodular(UniformRank(ground(4), 2))
        assert ok and pair is None

    def test_first_violation_in_canonical_order(self):
        g = ground(2)
        f = TableFn(g, [0, 0, 0, 1])
        ok, pair = is_submodular(f)
        assert not ok
        assert pair == (0b01, 0b10)

    def test_dual_of_submodular_is_submodular(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            f = random_table(ground(n), rng)
            ok, _ = is_submodular(f.dual())
            assert ok

    def test_matroid_rank_families(self):
        assert is_matroid_rank(k3())
        assert is_matroid_rank(UniformRank(ground(4), 2))
        assert is_matroid_rank(PartitionRank(ground(3), (0b011, 0b100), (1, 1)))

    def test_scaled_rank_is_not_matroid_rank(self):
        assert not is_matroid_rank(u12().scale(2))

    def test_non_submodular_table_is_not_matroid_rank(self):
        # monotone, 0/1-bounded, but f({a}) + f({b}) < f({a, b}) + f({})
        f = TableFn(ground(2), [0, 0, 0, 1])
        assert is_submodular(f) == (False, (0b01, 0b10))
        assert not is_matroid_rank(f)

    def test_dual_rank_is_not_matroid_rank(self):
        # negative values: evaluate the dual on every subset
        d = u12().dual()
        assert min(d(m) for m in d.ground.subsets()) < 0
        assert not is_matroid_rank(d)

    def test_table_fn_has_no_constructor_of_its_own(self):
        assert "__init__" not in vars(TableFn)

    @pytest.mark.parametrize("cls", [core.SubmodularFn, TableFn])
    @pytest.mark.parametrize("values, message", [
        ([0, 0.5], "table must have integer entries, got 0.5"),
        ([0, True], "table must have integer entries, got True"),
        ([0, "1"], "table must have integer entries, got '1'"),
        ([0, None], "table must have integer entries, got None"),
        ([-1, 0], "table value on the empty set must be 0, got -1"),
        (5, "table must be a sequence of integers, got 5"),
    ])
    def test_one_constructor_checks_every_table(self, cls, values, message):
        # the raw base class checks as TableFn does: a bool is no int, [0, True] no [0, 1]
        with pytest.raises(UsageError) as err:
            cls(GroundSet(["a"]), values)
        assert str(err.value) == message


class TestConstructions:
    def test_dual_involution(self):
        for _, f in tiny_instances():
            dd = f.dual().dual()
            for mask in f.ground.subsets():
                assert dd(mask) == f(mask)

    def test_materialize_agrees_with_lazy(self):
        f = k3().dual().shift((1, -1, 2)).reduce_at("a", 0).scale(3)
        table = materialize(f)
        for mask in f.ground.subsets():
            assert table(mask) == f(mask)

    def test_constructions_preserve_submodularity(self):
        rng = random.Random(11)
        f = random_table(ground(3), rng)
        for g in (
            f.dual(),
            f.shift((2, -3, 1)),
            f.reduce((1, 0, 2)),
            f.reduce_at("c", 1),
            f.scale(3),
        ):
            ok, pair = is_submodular(g)
            assert ok, pair

    def test_block_restrict_preserves_submodularity(self):
        rng = random.Random(12)
        f = random_table(ground(4), rng)
        sub = f.block_restrict(0b0001, 0b0110)
        ok, _ = is_submodular(sub)
        assert ok

    @pytest.mark.parametrize("a_prev, block", [(1.0, 2), (0, "a"), (True, 2), (0, None)])
    def test_block_restrict_refuses_masks_that_are_not_ints(self, a_prev, block):
        with pytest.raises(UsageError, match="block restriction masks must be integers, got"):
            k3().block_restrict(a_prev, block)

    @pytest.mark.parametrize("mask", [True, False, 1.0, "a", None])
    def test_masks_that_are_not_ints_are_refused(self, mask):
        # a bool is an int to Python, but True is no subset of {a, b, c}
        with pytest.raises(UsageError, match=f"a subset mask must be an integer, got {mask!r}$"):
            k3()(mask)
        with pytest.raises(UsageError, match=f"a subset mask must be an integer, got {mask!r}$"):
            k3().ground.names_of(mask)
        assert k3()(1) == 1 and k3().ground.names_of(1) == ("a",)

    @pytest.mark.parametrize("blocks", [[True, 6], [1, 2, True, 4], [1.0, 6], ["a", 6]])
    def test_partition_blocks_that_are_not_ints_are_refused(self, blocks):
        g = GroundSet("abc")
        with pytest.raises(UsageError, match="partition blocks must be integer masks, got"):
            PartitionRank(g, blocks, [1] * len(blocks))

    def test_scale_requires_positive_integer(self):
        with pytest.raises(UsageError):
            u12().scale(0)

    def test_graphic_rank_via_union_find(self):
        # triangle plus a parallel edge: rank counts forest edges
        g = GroundSet(("e1", "e2", "e3", "e4"))
        f = GraphicRank(g, 3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        assert f(0b1111) == 2
        assert f(0b1001) == 1  # two parallel edges
        assert f(0b0111) == 2


    def test_graphic_rank_ignores_untouched_vertices(self):
        g = GroundSet(("e1", "e2", "e3", "e4"))
        far = 10**6 - 1
        sparse = GraphicRank(g, 10**6, [(0, far), (far, 5), (5, 0), (0, far)])
        dense = GraphicRank(g, 3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        assert sparse.values == dense.values

    def test_graphic_rank_rejects_non_integer_endpoints(self):
        with pytest.raises(UsageError, match="integers"):
            GraphicRank(ground(2), 2, [(0, 1), (0, 1.7)])

    @pytest.mark.parametrize("build", [
        lambda g: UniformRank(g, True),
        lambda g: PartitionRank(g, [g.full_mask], [True]),
        lambda g: GraphicRank(g, "3", [(0, 1), (1, 2)]),
        lambda g: GraphicRank(g, 3.0, [(0, 1), (1, 2)]),
    ], ids=["uniform-bool", "partition-bool", "graphic-str", "graphic-float"])
    def test_integer_parameters_refuse_bools_strings_and_floats(self, build):
        with pytest.raises(UsageError, match="integer"):
            build(ground(2))


class TestGroundSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(UsageError):
            GroundSet(("a", "a"))

    def test_limit_enforced(self):
        with pytest.raises(UsageError, match=r"size 4 outside \[1, 3\]"):
            GroundSet("abcd", 3)
        assert GroundSet("abc", 3).n == 3
        assert ground(4).n == 4  # the default cap again, nothing was left set
        with pytest.raises(UsageError, match="size 13 outside"):
            GroundSet(range(13))
        with pytest.raises(UsageError, match="limit must be at least 1, got 0$"):
            GroundSet("a", 0)
        for limit in ("x", 2.5, True, None):
            with pytest.raises(UsageError, match=f"limit must be at least 1, got {limit!r}$"):
                GroundSet("ab", limit)

    def test_derived_grounds_keep_a_raised_limit(self):
        names = [f"e{i}" for i in range(14)]
        f = UniformRank(GroundSet(names, limit=14), 2)
        block = f.block_restrict(1, f.ground.full_mask ^ 1)
        assert block.ground.elements == tuple(names[1:])
        for g in (f.ground, block.ground):
            assert copy.deepcopy(g) == g and pickle.loads(pickle.dumps(g)) == g

    @pytest.mark.parametrize("names, message", [
        ([1, 2, 3], "cannot spell element 1: not a string"),
        (["a", None], "cannot spell element None: not a string"),
        ([["a"], ["b"]], "cannot spell element ['a']: not a string"),
        (["b,c", "a", "a,"], "cannot spell element 'a,': empty or holds ','"),
        (["a", ""], "cannot spell element '': empty or holds ','"),
    ])
    def test_names_are_nonempty_strings_without_commas(self, names, message):
        with pytest.raises(UsageError, match=f"^table keys {message}$".replace("[", r"\[")):
            GroundSet(names)

    def test_names_are_checked_after_distinctness_and_size(self):
        with pytest.raises(UsageError, match=r"not distinct: \(1, 1\)$"):
            GroundSet([1, 1])
        with pytest.raises(UsageError, match=r"size 13 outside \[1, 12\]$"):
            GroundSet([str(i) + "," for i in range(13)])

    @pytest.mark.parametrize("elements", [None, 1.5, True, -1])
    def test_elements_that_are_not_a_sequence_are_refused(self, elements):
        with pytest.raises(UsageError, match="ground elements must be a sequence of names, got"):
            GroundSet(elements)

    def test_mask_round_trip(self):
        g = ground(4)
        assert g.mask_of(("b", "d")) == 0b1010
        assert g.names_of(0b1010) == ("b", "d")

    def test_frozen_value_semantics(self):
        from polybase import FaceStructure, PointSet, WeightedDecomposition

        g = GroundSet(["a", "b"])
        assert g.elements == ("a", "b")
        assert g == GroundSet(("a", "b")) and hash(g) == hash(GroundSet(("a", "b")))
        assert g != GroundSet(("b", "a"))
        assert repr(g) == "GroundSet(elements=('a', 'b'))"
        assert copy.deepcopy(g) == g and pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(AttributeError):
            g.elements = ("c",)
        with pytest.raises(AttributeError):
            del g.elements
        assert g != ("a", "b")
        assert PointSet(((1,),), "x") != PointSet(((1,),), "y")
        # the one initializer takes fields by position or by name
        fields = (((1, (1, 0)),), (1, 0), 1)
        dec = WeightedDecomposition(*fields)
        assert dec == WeightedDecomposition(terms=fields[0], target=(1, 0), multiplicity=1)
        assert dec == WeightedDecomposition(fields[0], (1, 0), multiplicity=1)
        with pytest.raises(TypeError):
            WeightedDecomposition(*fields, colour="red")
        with pytest.raises(TypeError):
            WeightedDecomposition(*fields[:2])
        with pytest.raises(TypeError):
            WeightedDecomposition(*fields[:2], terms=fields[0])
        with pytest.raises(TypeError):
            WeightedDecomposition(*fields, fields[0])
        # a face is built from its ground and chain alone, and derives the rest
        face = FaceStructure(g, (0, 1, 3))
        assert face == FaceStructure(ground=g, chain=(0, 1, 3)) == FaceStructure(g, chain=(0, 1, 3))
        assert (face.blocks, face.positions, face.dim) == ((1, 2), ((0,), (1,)), 0)
        assert face != FaceStructure(g, (0, 2, 3))
        with pytest.raises(TypeError):
            FaceStructure(g, (0, 1, 3), colour="red")
        with pytest.raises(TypeError):
            FaceStructure(g)
        with pytest.raises(TypeError):
            FaceStructure((0, 1, 3), ground=g)
        with pytest.raises(TypeError):
            FaceStructure(g, (0, 1, 3), (1, 2), 0, ((0,), (1,)))
        with pytest.raises(AttributeError):
            face.dim = 1
        dec = WeightedDecomposition.from_terms([(1, (1, 0)), (2, (0, 1))], (1, 2), 3)
        assert pickle.loads(pickle.dumps(dec)) == dec
        assert copy.deepcopy(dec) == dec and hash(copy.deepcopy(dec)) == hash(dec)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4))
def test_random_tables_are_submodular(seed, n):
    f = random_table(ground(n), random.Random(seed))
    ok, pair = is_submodular(f)
    assert ok, pair


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(2, 4))
def test_dual_involution_random(seed, n):
    f = random_table(ground(n), random.Random(seed))
    dd = f.dual().dual()
    assert all(dd(m) == f(m) for m in f.ground.subsets())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_reduction_clips_extended_polymatroid(seed):
    """Integer points with x <= a in EP_f are exactly those of EP_{f|a}."""
    from polybase import in_extended_polymatroid

    rng = random.Random(seed)
    g = ground(3)
    f = coverage_table(g, rng)
    a = tuple(rng.randint(-1, 3) for _ in range(3))
    red = f.reduce(a)
    lows = tuple(f(g.full_mask) - f(g.full_mask ^ (1 << i)) - 2 for i in range(3))
    for p in itertools.product(*(range(lows[i], a[i] + 1) for i in range(3))):
        in_f = in_extended_polymatroid(f, p)[0] and all(
            v <= b for v, b in zip(p, a)
        )
        in_red = in_extended_polymatroid(red, p)[0]
        assert in_f == in_red


# ---------------------------------------------------------------------------
# differential tests: value tables against one-mask-at-a-time definitions
# ---------------------------------------------------------------------------

def naive_table(fn):
    """fn's values by each node's definition, one mask at a time.

    Recurses through the inner nodes with a memo keyed by (node, mask), the
    way lazy evaluation did; it never reads a derived node's table.
    """
    memo = {}

    def ev(node, mask):
        key = (id(node), mask)
        if key not in memo:
            memo[key] = _naive_value(node, mask, ev)
        return memo[key]

    return [ev(fn, m) for m in fn.ground.subsets()]


def _naive_value(node, mask, ev):
    n = node.ground.n
    if isinstance(node, TableFn):
        return node.values[mask]
    if isinstance(node, UniformRank):
        return min(bin(mask).count("1"), node.rank)
    if isinstance(node, PartitionRank):
        return sum(
            min(bin(mask & b).count("1"), c) for b, c in zip(node.blocks, node.caps)
        )
    if isinstance(node, GraphicRank):
        # rank = vertices - connected components of the chosen edges
        label = list(range(node.vertices))
        for i in range(n):
            if mask >> i & 1:
                lu, lv = (label[v] for v in node.edges[i])
                label = [lu if lab == lv else lab for lab in label]
        return node.vertices - len(set(label))
    inner = node.inner
    if isinstance(node, DualFn):
        full = (1 << n) - 1
        return ev(inner, full ^ mask) - ev(inner, full)
    if isinstance(node, ShiftFn):
        return ev(inner, mask) + sum(node.a[i] for i in range(n) if mask >> i & 1)
    if isinstance(node, ReduceAtFn):
        a = [ev(inner, 1 << i) for i in range(n)]
        a[inner.ground.index(node.element)] = node.cap
        return brute_reduce(lambda t: ev(inner, t), a, mask)
    if isinstance(node, ReduceFn):
        return brute_reduce(lambda t: ev(inner, t), node.a, mask)
    if isinstance(node, ScaleFn):
        return node.r * ev(inner, mask)
    if isinstance(node, BlockRestrictFn):
        positions = [i for i in range(inner.ground.n) if node.block >> i & 1]
        parent = node.a_prev
        for j, p in enumerate(positions):
            if mask >> j & 1:
                parent |= 1 << p
        return ev(inner, parent) - ev(inner, node.a_prev)
    raise TypeError(f"no reference definition for {type(node).__name__}")


def pair_scan_is_submodular(f):
    """Reference check over all pairs (A, B), O(4^n)."""
    total = 1 << f.ground.n
    vals = [f(m) for m in range(total)]
    for a in range(total):
        for b in range(a + 1, total):
            if vals[a] + vals[b] < vals[a | b] + vals[a & b]:
                return False, (a, b)
    return True, None


@st.composite
def leaves(draw, n):
    """A base node on n elements: an arbitrary table or a matroid rank."""
    g = ground(n)
    kind = draw(st.sampled_from(("table", "submodular", "uniform", "partition", "graphic")))
    if kind == "table":
        rest = draw(st.lists(st.integers(-9, 9), min_size=2**n - 1, max_size=2**n - 1))
        return TableFn(g, [0] + rest)
    if kind == "submodular":
        return random_table(g, random.Random(draw(st.integers(0, 10**9))))
    if kind == "uniform":
        return UniformRank(g, draw(st.integers(0, n + 1)))
    if kind == "partition":
        cut = draw(st.integers(1, n))
        low = (1 << cut) - 1
        blocks = (low, g.full_mask ^ low) if cut < n else (low,)
        return PartitionRank(g, blocks, [draw(st.integers(0, 3)) for _ in blocks])
    vertices = draw(st.integers(1, 4))
    edge = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    return GraphicRank(g, vertices, draw(st.lists(edge, min_size=n, max_size=n)))


@st.composite
def chains(draw, leaf=None):
    """A leaf (from the strategy leaf, else leaves()) wrapped in 1..4 random
    constructions, vectors with negatives."""
    f = draw(leaf if leaf is not None else leaves(draw(st.integers(2, 6))))
    for _ in range(draw(st.integers(1, 4))):
        m = f.ground.n
        vector = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
        op = draw(st.sampled_from(("dual", "shift", "reduce", "reduce_at", "scale", "block")))
        if op == "dual":
            f = f.dual()
        elif op == "shift":
            f = f.shift(draw(vector))
        elif op == "reduce":
            f = f.reduce(draw(vector))
        elif op == "reduce_at":
            f = f.reduce_at(draw(st.sampled_from(f.ground.elements)), draw(st.integers(-3, 5)))
        elif op == "scale":
            f = f.scale(draw(st.integers(1, 4)))
        else:
            block = draw(st.integers(1, f.ground.full_mask))
            f = f.block_restrict(draw(st.integers(0, f.ground.full_mask)) & ~block, block)
    return f


@settings(max_examples=200, deadline=None)
@given(f=chains())
def test_tables_match_one_mask_definitions(f):
    assert list(f.values) == naive_table(f)
    assert [f(m) for m in f.ground.subsets()] == list(f.values)


def test_nested_chain_matches_definitions():
    rng = random.Random(77)
    f = random_table(ground(5), rng)
    chain = f.shift((2, -3, 0, 1, -1)).scale(3).reduce_at("c", -2).dual()
    assert list(chain.values) == naive_table(chain)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_reduce_dp_matches_min_over_subsets(n, data):
    f = data.draw(leaves(n))
    a = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    red = f.reduce(a)
    for mask in f.ground.subsets():
        assert red(mask) == brute_reduce(f, a, mask)


def local_scan_is_submodular(f):
    """Reference local test, one mask at a time: S in canonical order, then
    i < j outside S; returns the first failing pair (S+i, S+j)."""
    v = f.values
    n = f.ground.n
    for s, vs in enumerate(v):
        free = [1 << i for i in range(n) if not s >> i & 1]
        for x, bi in enumerate(free):
            a = s | bi
            for bj in free[x + 1:]:
                b = s | bj
                if v[a] + v[b] < v[a | b] + vs:
                    return False, (a, b)
    return True, None


def slice_sweep_is_submodular(f):
    """The slice sweep is_submodular ran before the packed test, kept as a
    differential oracle.  For every element j the marginal table
    f(S+j) - f(S) must not increase along any bit i < j."""
    v = f.values
    n = f.ground.n
    size = len(v)
    for j in range(n):
        b = 1 << j
        # d is indexed by the mask with bit j deleted: bits below j keep their place
        d = [v[m | b] - v[m] for m in range(size) if not m & b]
        for i in range(j):
            for lo, hi in core._halves(size // 2, 1 << i):
                if not all(map(le, d[hi], d[lo])):
                    return False, local_scan_is_submodular(f)[1]
    return True, None


def checks_agree(values, g=None):
    """is_submodular on a table of values against both references, and
    leaving the node as it was; returns the common (ok, pair)."""
    f = TableFn(g or ground((len(values) - 1).bit_length()), values)
    expected = local_scan_is_submodular(f)
    assert slice_sweep_is_submodular(f) == expected
    before = dict(vars(f))
    assert is_submodular(f) == expected
    assert vars(f) == before
    return expected


def nudge(values, rng, count, sizes=(-2, -1, 1, 2)):
    """values with count random nonempty masks moved by one of sizes."""
    values = list(values)
    for _ in range(count):
        values[rng.randrange(1, len(values))] += rng.choice(sizes)
    return values


def one_mask_is_matroid_rank(f):
    """Reference matroid-rank test, one mask at a time: 0 <= f(S) <= |S|,
    f(S) <= f(S + i), and f(S + i) + f(S + j) >= f(S + i + j) + f(S)."""
    v = f.values
    n = f.ground.n
    for mask, val in enumerate(v):
        if val < 0 or val > bin(mask).count("1"):
            return False
        outside = [i for i in range(n) if not mask >> i & 1]
        for i in outside:
            if v[mask | 1 << i] < val:
                return False
            for j in outside:
                both = mask | 1 << i | 1 << j
                if i < j and v[mask | 1 << i] + v[mask | 1 << j] < v[both] + val:
                    return False
    return True


def nudged(f, data, bump):
    """f with bump added to one random nonempty mask's value."""
    if not bump:
        return f
    values = list(f.values)
    values[data.draw(st.integers(1, f.ground.full_mask))] += bump
    return TableFn(f.ground, values)


@settings(max_examples=150, deadline=None)
@given(
    f=st.one_of(chains(), st.integers(2, 6).flatmap(leaves)),
    bump=st.integers(-1, 1),
    data=st.data(),
)
def test_local_submodularity_test_matches_pair_scan(f, bump, data):
    # nudge one value so near-submodular functions get tested too
    f = nudged(f, data, bump)
    ok, pair = is_submodular(f)
    assert (ok, pair) == local_scan_is_submodular(f) == slice_sweep_is_submodular(f)
    assert ok == pair_scan_is_submodular(f)[0]
    if not ok:
        a, b = pair
        assert f(a) + f(b) < f(a | b) + f(a & b)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_local_submodularity_matches_scan_on_large_tables(n):
    # the packed test, the slice sweep (stride and chunk layouts) and the
    # mask-by-mask scan agree, failing pair included
    rng = random.Random(900 + n)
    outcomes = set()
    for trial in range(12 if n <= 10 else 3):
        values = nudge(random_table(ground(n), rng).values, rng, trial % 3)
        outcomes.add(checks_agree(values)[0])
    assert outcomes == {True, False}


def test_packed_check_matches_references_on_small_tables():
    # GroundSet refuses an empty ground, so n = 0 runs on a stand-in
    empty = SimpleNamespace(ground=SimpleNamespace(n=0), values=(0,))
    assert is_submodular(empty) == local_scan_is_submodular(empty) == (True, None)
    rng = random.Random(1400)
    outcomes = set()
    for n in range(1, 7):
        for trial in range(30):
            values = nudge(random_table(ground(n), rng).values, rng, trial % 3)
            outcomes.add(checks_agree(values)[0])
    assert outcomes == {True, False}


def test_packed_check_matches_references_on_the_corpora():
    rng = random.Random(1401)
    outcomes = set()
    for _, f in acceptance_corpus() + flat_corpus():
        assert checks_agree(f.values, f.ground) == (True, None)
        outcomes.add(checks_agree(nudge(f.values, rng, 1, (-1, 1)), f.ground)[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("scale", [1, 2**62, 2**200, 9 * 10**4299])
def test_packed_check_matches_references_on_wide_values(scale):
    # fields far wider than a machine word, negative values and modular
    # shifts of +-10^40, whose spread dwarfs the local differences
    rng = random.Random(1402)
    outcomes = set()
    for n in range(1, 5):
        g = ground(n)
        for trial in range(12):
            f = random_table(g, rng)
            if trial % 4 == 1:
                f = f.dual()
            elif trial % 4 == 2:
                f = f.shift([rng.choice((-1, 1)) * 10**40 for _ in range(n)])
            elif trial % 4 == 3:
                f = f.scale(3).shift([-(10**40)] * n)
            values = [scale * v for v in f.values]
            outcomes.add(checks_agree(nudge(values, rng, trial % 3, (-1, 1, -scale)), g)[0])
            # -f is supermodular: it fails wherever f is not modular
            checks_agree([-v for v in values], g)
    assert outcomes == {True, False}


def test_packed_check_at_the_field_width_edges():
    # values in {-M, 0, M} with M = 2^b - 1, f(ab) also off by one: spreads
    # of about 2M, b + 1 bits, marginals of about +-2M and local differences
    # of 0 and +-1, so every spread from 2 to 73 bits meets each way a field
    # can sit against its width (two spare bits or nine)
    rng = random.Random(1403)
    for b in range(1, 72):
        m = (1 << b) - 1
        near = [v + e for v in (-m, 0, m) for e in (-1, 0, 1)]
        for rest in itertools.product((-m, 0, m), (-m, 0, m), near):
            checks_agree([0, *rest])
        for _ in range(8):
            checks_agree([0] + [rng.choice((-m, 0, m)) for _ in range(7)])


def test_packed_check_names_the_first_failing_s_not_the_first_failing_pair():
    # f(U) = [b, c in U] + [U = E] on abcd: pair (a, b) fails only at
    # S = {c, d}, pair (b, c) already at S = {}, so the first violation in
    # canonical order comes from the later pair
    values = [int(m & 0b0110 == 0b0110) + int(m == 0b1111) for m in range(16)]
    assert checks_agree(values) == (False, (0b0010, 0b0100))


def test_packed_check_finds_a_violation_at_the_last_s():
    # f(U) = |U & ab| + c(|U - ab|) with c strictly concave is submodular,
    # with slack 0 on pair (a, b) and 2 on pairs outside ab; one more on
    # f(E - ab) breaks only the local test at S = E - ab, the last S in
    # canonical order
    rest = (1 << 12) - 4
    values = [(m & 3).bit_count() + 20 * (t := (m & rest).bit_count()) - t * t
              for m in range(1 << 12)]
    assert checks_agree(values) == (True, None)
    values[rest] += 1
    assert checks_agree(values) == (False, (rest | 1, rest | 2))


@pytest.mark.parametrize("n", [7, 10])
def test_every_bit_pair_violation_is_found(n):
    # f(U) = [i, j both in U] fails the local test on the pair (i, j) only
    for i, j in itertools.combinations(range(n), 2):
        both = 1 << i | 1 << j
        f = TableFn(ground(n), [int(m & both == both) for m in range(1 << n)])
        assert is_submodular(f) == (False, (1 << i, 1 << j))
        # the same table scaled to a wide field and shifted by a modular +-10^40
        shift = [(-1) ** b * 10**40 for b in range(n)]
        wide = TableFn(ground(n), map(add, [2**62 * v for v in f.values], subset_sums(shift)))
        assert is_submodular(wide) == (False, (1 << i, 1 << j))


def edge_table(g, top, rng):
    """A submodular table of values in 0..top that reaches top: a coverage
    function scaled past top and truncated at it, or a capped cardinality."""
    if rng.random() < 0.25:
        step = -(-top // rng.randint(1, g.n))
        return [min(step * m.bit_count(), top) for m in g.subsets()]
    base = coverage_table(g, rng).values
    while not base[-1]:
        base = coverage_table(g, rng).values
    scale = -(-top // base[-1])
    return [min(scale * v, top) for v in base]


@pytest.mark.parametrize("top", [63, 64, 255, 256])
def test_packed_check_at_the_one_byte_packing_edges(top):
    # top = 63 is the largest table bytes() packs as is; 64 needs two-byte
    # fields, 255 is still bytes() but not packable, 256 is not even bytes()
    rng = random.Random(1404 + top)
    outcomes = set()
    for n in range(2, 8):
        g = ground(n)
        for trial in range(8):
            values = edge_table(g, top, rng)
            assert max(values) == top and min(values) == 0
            outcomes.add(checks_agree(values, g)[0])
            # moved inside 0..top, the full set keeps top
            for _ in range(trial % 3 + 1):
                m = rng.randrange(1, g.full_mask)
                values[m] = min(top, max(0, values[m] + rng.choice((-1, 1))))
            outcomes.add(checks_agree(values, g)[0])
    assert outcomes == {True, False}


def test_packed_check_with_a_single_negative_entry():
    # one -1 among small values: bytes() refuses it and the general packing runs
    rng = random.Random(1405)
    outcomes = set()
    for n in range(2, 8):
        g = ground(n)
        for _ in range(10):
            values = edge_table(g, 63, rng)
            values[rng.randrange(1, 1 << n)] = -1
            outcomes.add(checks_agree(values, g)[0])
    # lowering f(E) keeps every local inequality; lowering f({a}) below
    # f({a, b}) - f({b}) breaks the first one
    assert checks_agree([0, 1, 1, 1, 1, 2, 2, -1]) == (True, None)
    assert checks_agree([0, -1, 1, 1]) == (False, (0b01, 0b10))
    assert outcomes == {True, False}


def pair_class(pair, s):
    """How many of a failing pair's elements i < j lie at slab bit s or above."""
    a, b = pair
    low = a & b
    return ((a ^ low).bit_length() > s) + ((b ^ low).bit_length() > s)


@pytest.mark.parametrize("slab_bytes", [1, 2, 4, 8, 16])
def test_slabs_match_references(monkeypatch, slab_bytes):
    # slabs of 2^s one-byte fields, s = 0..4, on n = 4..8: pairs inside a
    # slab, pairs across slabs with one element inside, and with none
    slabbed = []
    slab_check = core._slab_check
    monkeypatch.setattr(core, "_SLAB_BYTES", slab_bytes)
    monkeypatch.setattr(core, "_slab_check", lambda *a: slabbed.append(a[4]) or slab_check(*a))
    s = slab_bytes.bit_length() - 1
    rng = random.Random(1406 + slab_bytes)
    classes = set()
    for n in range(4, 9):
        g = ground(n)
        for trial in range(6):
            values = nudge(random_table(g, rng).values, rng, trial % 3)
            ok, pair = checks_agree(values, g)
            if not ok:
                classes.add(pair_class(pair, s))
            # fields of 9 bytes: one per slab
            checks_agree([2**62 * v for v in values], g)
        for i, j in itertools.combinations(range(n), 2):
            both = 1 << i | 1 << j
            pair = (1 << i, 1 << j)
            assert checks_agree([int(m & both == both) for m in g.subsets()], g) == (False, pair)
            classes.add(pair_class(pair, s))
    # the last S in canonical order, and a later pair that fails at an earlier S
    test_packed_check_finds_a_violation_at_the_last_s()
    test_packed_check_names_the_first_failing_s_not_the_first_failing_pair()
    assert classes == ({0, 1, 2} if s >= 2 else {1, 2} if s else {2})
    assert {s, 0} <= set(slabbed) <= set(range(s + 1))


def test_slabs_at_their_own_size_match_references(monkeypatch):
    # n = 10 tables scaled by 2^2100 pack into 1024 fields of about 265
    # bytes, past the default slab size: two slabs of 2^9 fields
    slabbed = []
    slab_check = core._slab_check
    monkeypatch.setattr(core, "_slab_check", lambda *a: slabbed.append(a[4]) or slab_check(*a))
    rng = random.Random(1408)
    g = ground(10)
    outcomes = set()
    for trial in range(3):
        values = nudge(random_table(g, rng).values, rng, trial, (-1, 1))
        outcomes.add(checks_agree([v << 2100 for v in values], g)[0])
    assert outcomes == {True, False} and slabbed == [9, 9, 9]


@pytest.mark.parametrize("n, nbytes", [
    (12, 1), (13, 1), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (8, 18), (12, 18),
])
def test_kernel_dispatch_edges_match_references(monkeypatch, n, nbytes):
    # tables of values in 0..63 that reach 63 at E, nudged inside that range
    # in later trials, scaled by 2^(8 nbytes - 8) into fields of nbytes bytes;
    # the last trial zeroes f(E - i) and f(E - j), which fails at S = E - ij
    # if not before.  One-byte fields on n = 12 stay on the cached kernel,
    # every other shape fits one slab and runs the slab kernel with s = n
    ran = {"_packed_check": [], "_slab_check": []}
    for name, calls in ran.items():
        kernel = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, k=kernel, c=calls: c.append(a) or k(*a))
    g = GroundSet(tuple(f"e{i}" for i in range(n)), 13)
    rng = random.Random(1409 + 32 * n + nbytes)
    scale = 1 << 8 * nbytes - 8
    outcomes = set()
    for trial in range(4):
        values = edge_table(g, 63, rng)
        for _ in range(trial):
            m = rng.randrange(1, g.full_mask)
            values[m] = min(63, max(0, values[m] + rng.choice((-1, 1))))
        if trial == 3:
            for i in rng.sample(range(n), 2):
                values[g.full_mask ^ 1 << i] = 0
        values = [scale * v for v in values]
        assert ((max(values) - min(values)).bit_length() + 9) // 8 == nbytes
        outcomes.add(checks_agree(values, g)[0])
    assert outcomes == {True, False}
    cached = (n, nbytes) == (12, 1)
    assert [a[1] for a in ran["_packed_check"]] == ([n] * 4 if cached else [])
    assert [a[4] for a in ran["_slab_check"]] == ([] if cached else [n] * 4)


def test_mask_cache_holds_only_small_one_byte_shapes():
    core._byte_pair_masks.cache_clear()
    rng = random.Random(1407)
    g10 = ground(10)
    wide = TableFn(g10, [2**40 * v for v in random_table(g10, rng).values])
    big_n = UniformRank(GroundSet(tuple(f"e{i}" for i in range(13)), 13), 6)
    for f in (wide, big_n, TableFn(g10, [64 * v for v in UniformRank(g10, 5).values])):
        assert is_submodular(f) == (True, None)
    assert core._byte_pair_masks.cache_info().currsize == 0
    for n in range(1, 13):
        assert is_submodular(UniformRank(ground(n), n // 2)) == (True, None)
        assert is_submodular(UniformRank(ground(n), n // 2)) == (True, None)
    assert core._byte_pair_masks.cache_info().currsize == 12
    # every shape the cache can hold, together
    held = sum(sys.getsizeof(mask) for n in range(core._CACHED_N + 1)
               for high, rows in [core._byte_pair_masks(n)]
               for mask in (high, *itertools.chain.from_iterable(rows)))
    assert held < 1 << 20


def test_wide_check_memory_is_bounded_by_slabs():
    # n = 12, values near 10^4000: without slabs the check held n masks as
    # wide as the 6.8 MB packed table, about 150 MB over its start
    code = (
        "import resource\n"
        "from polybase.core import GroundSet, TableFn, is_submodular\n"
        "g = GroundSet(tuple('abcdefghijkl'))\n"
        "values = [10**4000 * (3 * min(m.bit_count(), 7) + min((m & 0xf0).bit_count(), 2))\n"
        "          + (m & 0x7).bit_count() for m in g.subsets()]\n"
        "f = TableFn(g, values)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert is_submodular(f) == (True, None)\n"
        "print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = Path(core.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    before, after = map(int, proc.stdout.split())  # KB on Linux
    assert after - before < 64 * 1024


@settings(max_examples=150, deadline=None)
@given(
    f=st.one_of(chains(), st.integers(2, 6).flatmap(leaves)),
    bump=st.integers(-1, 1),
    data=st.data(),
)
def test_matroid_rank_check_matches_one_mask_reference(f, bump, data):
    f = nudged(f, data, bump)
    assert is_matroid_rank(f) == one_mask_is_matroid_rank(f)


def test_positions_match_a_plain_bit_loop():
    # every mask the cache holds, then random masks of 13-20 bits past it
    def plain(mask):
        out, i = [], 0
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return tuple(out)

    rng = random.Random(29)
    wide = [rng.getrandbits(n) | 1 << n - 1 for n in range(13, 21) for _ in range(50)]
    for mask in [*range(1 << 12), *wide]:
        assert core._positions(mask) == plain(mask), mask


@pytest.mark.parametrize("n", [7, 8, 9])
def test_reduce_sweeps_match_min_over_subsets_on_large_tables(n):
    rng = random.Random(700 + n)
    f = random_table(ground(n), rng)
    a = [rng.randint(-5, 5) for _ in range(n)]
    red = f.reduce(a)
    assert list(red.values) == [brute_reduce(f, a, m) for m in f.ground.subsets()]


def test_subset_sums_match_definition():
    rng = random.Random(31)
    for length in range(11):
        # small entries, then entries of either sign at or past 2^70
        for x in ([rng.randint(-6, 6) for _ in range(length)],
                  [rng.choice((-1, 1)) * (2**70 + rng.randint(0, 2**72)) for _ in range(length)]):
            expected = [
                sum(x[i] for i in range(length) if m >> i & 1) for m in range(1 << length)
            ]
            assert subset_sums(x) == expected


# ---------------------------------------------------------------------------
# reductions of checked and unchecked tables
# ---------------------------------------------------------------------------

@st.composite
def checked_leaves(draw):
    """A submodular leaf that is_submodular has passed.
    Cut-plus-modular tables are submodular but not monotone."""
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(("table", "cut_plus_modular", "instance")))
    if kind == "table":
        f = random_table(ground(n), rng)
    elif kind == "cut_plus_modular":
        f = materialize(cut_table(ground(n), rng).shift([rng.randint(-3, 3) for _ in range(n)]))
    else:
        f = random_instance(n, rng)[1]
    assert is_submodular(f) == (True, None)
    return f


@settings(max_examples=150, deadline=None)
@given(f=chains(checked_leaves()), data=st.data())
def test_memo_holds_and_binding_sweeps_reduce_exactly(f, data):
    # every construction keeps f submodular, and every reduction is exact
    assert local_scan_is_submodular(f) == (True, None)
    n = f.ground.n
    # caps around f({i}): binding, equal and slack, some of them negative
    offsets = data.draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    a = [f(1 << i) + d for i, d in enumerate(offsets)]
    capped = f.reduce_at(
        data.draw(st.sampled_from(f.ground.elements)), data.draw(st.integers(-3, 5))
    )
    for red in (f.reduce(a), capped):
        assert list(red.values) == [brute_reduce(f, red.a, m) for m in f.ground.subsets()]


def test_unchecked_node_gets_every_sweep():
    # f(U + i) > f(U) + f({i}), so the caps a_i = f({i}) all bind
    f = TableFn(ground(3), [0, 1, 1, 3, 1, 3, 3, 5])
    a = [f(1 << i) for i in range(3)]
    for red in (f.reduce(a), f.reduce_at("b", 1)):
        assert list(red.values) == [brute_reduce(f, red.a, m) for m in f.ground.subsets()]
        assert red.values != f.values
    assert is_submodular(f)[0] is False


def test_a_caller_set_attribute_is_not_trusted():
    # f(ab) > f(a) + f(b): no attribute a caller sets can make the check pass
    f = TableFn(GroundSet(["a", "b", "c"]), [0, 1, 1, 3, 2, 3, 3, 3])
    f.submodular = True
    assert is_submodular(f) == (False, (0b001, 0b010))
    red = f.reduce((1, 1, 2))
    assert list(red.values) == [brute_reduce(f, (1, 1, 2), m) for m in f.ground.subsets()]
    assert red.values[0b011] == 2
    with pytest.raises(UsageError, match="f is not submodular.*A = {a}, B = {b}"):
        decompose(f, (1, 1, 1), 1)


def _assigned_attributes(node) -> list:
    """The attribute targets an assignment or del statement node writes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            found.append(target)
    return found


def test_package_holds_no_process_state():
    # settings reach polybase as arguments: no module reads the environment
    # or rebinds a module global, and no node changes after construction:
    # no code assigns an attribute of an object other than self
    src = Path(core.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _assigned_attributes(node):
                if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(target)} =")
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global")
            elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} os.{a.name}" for a in node.names
                          if a.name in ("environ", "getenv")]
    assert len(list(src.glob("*.py"))) > 5 and found == []


def _front_end_imports(path: Path) -> list[str]:
    """The lines of path that import polybase.instance or polybase.cli, in any spelling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any({"instance", "cli"} & set(name.split(".")) for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_engine_modules_import_no_front_end():
    # the engine reads and writes no documents: instance and cli sit on top of it
    src = Path(core.__file__).parent
    assert _front_end_imports(src / "cli.py")  # the scan sees cli's own import of instance
    found = [line for name in ("core", "polytope", "lp", "decompose")
             for line in _front_end_imports(src / f"{name}.py")]
    assert found == []
