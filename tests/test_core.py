"""Unit tests for the submodular function algebra."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import coverage_table, ground, k3, random_table, tiny_instances, u12, u23
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
    is_matroid_rank,
    is_submodular,
    materialize,
    set_ground_limit,
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

    def test_dual_rank_is_not_matroid_rank(self):
        # negative values: evaluate the dual on every subset
        d = u12().dual()
        assert min(d(m) for m in d.ground.subsets()) < 0
        assert not is_matroid_rank(d)


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


class TestGroundSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(UsageError):
            GroundSet(("a", "a"))

    def test_limit_enforced(self):
        set_ground_limit(3)
        try:
            with pytest.raises(UsageError):
                ground(4)
            ground(3)
        finally:
            set_ground_limit(None)

    def test_env_limit(self, monkeypatch):
        monkeypatch.setenv("POLYBASE_LIMIT_N", "2")
        with pytest.raises(UsageError):
            ground(3)

    def test_mask_round_trip(self):
        g = ground(4)
        assert g.mask_of(("b", "d")) == 0b1010
        assert g.names_of(0b1010) == ("b", "d")

    def test_frozen_value_semantics(self):
        from polybase import PointSet

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
def chains(draw):
    """A leaf wrapped in 1..4 random constructions, vectors with negatives."""
    f = draw(leaves(draw(st.integers(2, 6))))
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


def one_mask_is_matroid_rank(f):
    """Reference matroid-rank test, one mask at a time."""
    v = f.values
    n = f.ground.n
    for mask, val in enumerate(v):
        if val < 0 or val > bin(mask).count("1"):
            return False
        for i in range(n):
            if not mask >> i & 1 and v[mask | 1 << i] < val:
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
    assert (ok, pair) == local_scan_is_submodular(f)
    assert ok == pair_scan_is_submodular(f)[0]
    if not ok:
        a, b = pair
        assert f(a) + f(b) < f(a | b) + f(a & b)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_local_submodularity_matches_scan_on_large_tables(n):
    # at n = 7..10 the sweeps split low bits by stride and high bits by
    # chunk, on the table and on its half-size marginals
    rng = random.Random(900 + n)
    outcomes = set()
    for trial in range(12):
        values = list(random_table(ground(n), rng).values)
        for _ in range(trial % 3):
            values[rng.randrange(1, 1 << n)] += rng.choice((-2, -1, 1, 2))
        f = TableFn(ground(n), values)
        result = is_submodular(f)
        assert result == local_scan_is_submodular(f)
        outcomes.add(result[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [7, 10])
def test_every_bit_pair_violation_is_found(n):
    # f(U) = [i, j both in U] fails the local test on the pair (i, j) only
    for i, j in itertools.combinations(range(n), 2):
        both = 1 << i | 1 << j
        f = TableFn(ground(n), [int(m & both == both) for m in range(1 << n)])
        assert is_submodular(f) == (False, (1 << i, 1 << j))


@settings(max_examples=150, deadline=None)
@given(
    f=st.one_of(chains(), st.integers(2, 6).flatmap(leaves)),
    bump=st.integers(-1, 1),
    data=st.data(),
)
def test_matroid_rank_check_matches_one_mask_reference(f, bump, data):
    f = nudged(f, data, bump)
    assert is_matroid_rank(f) == one_mask_is_matroid_rank(f)


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
        x = [rng.randint(-6, 6) for _ in range(length)]
        expected = [
            sum(x[i] for i in range(length) if m >> i & 1) for m in range(1 << length)
        ]
        assert subset_sums(x) == expected
