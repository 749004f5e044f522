"""Unit tests for base-polytope queries and face machinery."""

import inspect
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from corpus import (
    acceptance_corpus,
    block_fns,
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
    u24,
)
from polybase import (
    FaceStructure,
    TableFn,
    UniformRank,
    UsageError,
    bounding_box,
    decompose,
    dimension,
    enumerate_base_points,
    face_structure,
    greedy_vertex,
    in_base_polytope,
    in_extended_polymatroid,
    minimal_face_of_point,
    point_tight_family,
    tight_sets,
)
from polybase.core import subset_sums
from polybase.polytope import _maximal_chain, _times


class TestMembership:
    def test_extended_polymatroid(self):
        f = u12()
        assert in_extended_polymatroid(f, (1, 0)) == (True, None)
        ok, viol = in_extended_polymatroid(f, (1, 1))
        assert not ok and viol == 0b11

    def test_base_polytope(self):
        f = u23()
        assert in_base_polytope(f, (1, 1, 0))
        assert not in_base_polytope(f, (2, 0, 0))
        assert not in_base_polytope(f, (1, 0, 0))  # wrong level

    def test_spanning_tree_vector(self):
        assert in_base_polytope(k3(), (1, 1, 0))
        assert not in_base_polytope(k3(), (1, 1, 1))

    @pytest.mark.parametrize("x", [(0.5, 0.5), (True, False)])
    def test_non_integer_points_refused(self, x):
        with pytest.raises(UsageError, match="integer entries"):
            in_base_polytope(u12(), x)


class TestBoundingBox:
    def test_uniform(self):
        assert bounding_box(u23()) == ((0, 0, 0), (1, 1, 1))

    def test_shift_translates(self):
        f = u12().shift((5, 5))
        assert bounding_box(f) == ((5, 5), (6, 6))

    def test_dual_negates(self):
        assert bounding_box(u23().dual()) == ((-1, -1, -1), (0, 0, 0))


class TestGreedy:
    def test_rank_increments(self):
        f = u23()
        assert greedy_vertex(f, (0, 1, 2)) == (1, 1, 0)
        assert greedy_vertex(f, (2, 1, 0)) == (0, 1, 1)

    def test_soundness_all_orders(self):
        for _, f in tiny_instances():
            n = f.ground.n
            if n > 4:
                continue
            for order in itertools.permutations(range(n)):
                assert in_base_polytope(f, greedy_vertex(f, order))

    def test_rejects_non_permutation(self):
        with pytest.raises(UsageError):
            greedy_vertex(u12(), (0, 0))


def definitional_tight_sets(f):
    """Oracle: subsets with x(U) = f(U) on every greedy vertex."""
    n = f.ground.n
    vertices = {
        greedy_vertex(f, order) for order in itertools.permutations(range(n))
    }
    out = []
    for mask in f.ground.subsets():
        if all(sum(v[i] for i in range(n) if mask >> i & 1) == f(mask) for v in vertices):
            out.append(mask)
    return out


class TestTightSets:
    def test_uniform_trivial_family(self):
        f = u24()
        assert tight_sets(f) == [0, 0b1111]

    def test_partition_blocks_are_tight(self):
        assert tight_sets(part11()) == [0, 0b0011, 0b1100, 0b1111]

    def test_criterion_matches_definitional_oracle(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            assert tight_sets(f) == definitional_tight_sets(f)

    def test_lattice_closure(self):
        for _, f in tiny_instances():
            family = set(tight_sets(f))
            for a in family:
                for b in family:
                    assert (a | b) in family and (a & b) in family

    def test_all_maximal_chains_have_equal_length(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            family = set(tight_sets(f))
            full = f.ground.full_mask

            def successors(a):
                ups = [s for s in family if s != a and s & a == a]
                return [s for s in ups if not any(t != a and t != s and t & a == a and s & t == t for t in ups)]

            lengths = set()

            def walk(a, depth):
                if a == full:
                    lengths.add(depth)
                    return
                for s in successors(a):
                    walk(s, depth + 1)

            walk(0, 0)
            assert len(lengths) == 1


class TestDimension:
    def test_examples(self):
        assert dimension(u24()) == 3
        assert dimension(part11()) == 2
        assert dimension(UniformRank(ground(1), 1)) == 0

    def test_separator_count_matches_the_tight_chain(self):
        # n minus the bit length of the separators without the top element,
        # against n minus the blocks of a maximal tight chain, on every corpus
        # table and every table of the exhaustive three-element scope
        tables = [f for _, f in acceptance_corpus() + flat_corpus() + tiny_instances()]
        tables += [f for f, _ in small_scope()]
        assert len(tables) == 268 + 1390
        for f in tables:
            assert dimension(f) == face_structure(f).dim, f.values

    def test_a_separator_count_off_a_power_of_two_is_refused(self):
        # f(ac) + f(bc) < f(abc) + f(c); the separators without c are
        # {}, {a} and {b}: three, so they are no Boolean algebra
        f = TableFn(ground(3), [0, 1, 1, 2, 1, 1, 1, 2])
        with pytest.raises(UsageError) as err:
            dimension(f)
        assert str(err.value) == ("f is not submodular: it has 6 separators"
                                  " f(U) + f(E - U) = f(E), not a power of two")


class TestFaceStructure:
    def test_partition_factors(self):
        fs = face_structure(part11())
        assert fs.chain == (0, 0b0011, 0b1111)
        assert fs.blocks == (0b0011, 0b1100)
        for block_fn in block_fns(part11(), fs):
            # each block behaves like a rank-1 uniform matroid on 2 points
            assert [block_fn(m) for m in block_fn.ground.subsets()] == [0, 1, 1, 1]

    def test_full_dimensional_single_block(self):
        fs = face_structure(u23())
        assert fs.t == 1
        assert [block_fns(u23(), fs)[0](m) for m in range(8)] == [u23()(m) for m in range(8)]

    def test_direct_sum_reconstruction(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            fs = face_structure(f)
            whole = set(enumerate_base_points(f))
            block_points = [enumerate_base_points(fn) for fn in block_fns(f, fs)]
            # restricting to the blocks is a bijection from B_f onto their product
            split = {tuple(fs.restrict_vector(x, i) for i in range(fs.t)) for x in whole}
            assert len(split) == len(whole)
            assert split == set(itertools.product(*block_points))


    def test_every_corpus_face_derives_its_fields_and_pickles_its_inputs(self):
        # blocks, positions and dim by a plain bit loop, on the face of every
        # chain that decomposing the acceptance corpus factors along
        built = []
        rng = random.Random(76)
        for _, f in acceptance_corpus():
            k = rng.randint(1, 25)
            nodes = [decompose(f, sample_target(f, k, rng), k)[1]]
            for node in nodes:
                nodes += node.children
                if node.chain is not None:
                    built.append(FaceStructure(ground(len(node.w)), node.chain))
        assert len(built) > 400
        for face in built:
            n, chain = face.ground.n, face.chain
            blocks = tuple(cur - prev for prev, cur in zip(chain, chain[1:]))
            positions = tuple(tuple(p for p in range(n) if block >> p & 1) for block in blocks)
            assert (face.blocks, face.positions, face.dim) == (blocks, positions, n - len(blocks))
            assert face.__reduce__() == (FaceStructure, (face.ground, chain))
            again = pickle.loads(pickle.dumps(face))
            assert again == face and again.positions == positions

    @pytest.mark.parametrize("chain, message", [
        ((0, 3, 3, 15), "face chain (0, 3, 3, 15) does not rise strictly from 0 to 15"),
        ((0, 5, 3), "face chain (0, 5, 3) does not rise strictly from 0 to 15"),
        ((0, 3, 7), "face chain (0, 3, 7) does not rise strictly from 0 to 15"),
        ((1, 3, 15), "face chain (1, 3, 15) does not rise strictly from 0 to 15"),
        ((), "face chain () does not rise strictly from 0 to 15"),
        ((0, 3, 12, 15), "face chain (0, 3, 12, 15) does not rise strictly from 0 to 15"),
        ([0, 3, 15], "face chain [0, 3, 15] is not a tuple of int masks"),
        ((False, 3, 15), "face chain (False, 3, 15) is not a tuple of int masks"),
        ((0, 3.0, 15), "face chain (0, 3.0, 15) is not a tuple of int masks"),
        (None, "face chain None is not a tuple of int masks"),
    ], ids=["repeat", "overlap", "short", "late_start", "empty", "drop", "list", "bool", "float",
            "none"])
    def test_refuses_a_chain_that_does_not_rise_strictly_from_0_to_e(self, chain, message):
        # an empty step, overlapping steps, a short or a late start, a step
        # that drops an element, and chains of something other than int masks
        with pytest.raises(UsageError) as err:
            FaceStructure(ground(4), chain)
        assert str(err.value) == message

    def test_unpickling_checks_the_chain(self):
        class Tampered:
            def __reduce__(self):
                return FaceStructure, (ground(4), (0, 5, 3))

        data = pickle.dumps(Tampered())
        assert pickle.loads(pickle.dumps(FaceStructure(ground(4), (0, 5, 15)))).dim == 2
        with pytest.raises(UsageError, match=r"\(0, 5, 3\) does not rise strictly"):
            pickle.loads(data)


class TestMinimalFace:
    def test_vertex_has_zero_dimensional_face(self):
        fs = minimal_face_of_point(u23(), (1, 1, 0))
        assert fs.dim == 0
        assert len(fs.chain) == 4

    def test_u24_vertex(self):
        fs = minimal_face_of_point(u24(), (1, 1, 0, 0))
        assert fs.dim == 0

    def test_scaled_midpoint_sits_on_bigger_face(self):
        f = u23().scale(2)
        x = (2, 1, 1)
        fs = minimal_face_of_point(f, x)
        assert fs.dim >= 1
        # x restricted to each block lies in that block's base polytope
        for i, fn in enumerate(block_fns(f, fs)):
            assert in_base_polytope(fn, fs.restrict_vector(x, i))

    def test_precondition_enforced(self):
        with pytest.raises(UsageError):
            minimal_face_of_point(u23(), (2, 0, 0))

    def test_point_tight_family_closed(self):
        rng = random.Random(31)
        f = random_table(ground(4), rng)
        x = greedy_vertex(f)
        family = set(point_tight_family(f, x))
        for a in family:
            for b in family:
                assert (a | b) in family and (a & b) in family


def test_queries_take_a_point_never_its_sums():
    # (2, 0, 0) lies outside B_f; sums that would put it inside cannot be handed in
    f, x = u23(), (2, 0, 0)
    for query in (in_extended_polymatroid, in_base_polytope, minimal_face_of_point):
        assert "sums" not in inspect.signature(query).parameters
        with pytest.raises(TypeError):
            query(f, x, **{"sums": [0, 0, 0, 0, 0, 0, 0, 2]})
    assert in_base_polytope(f, x) is False
    assert in_extended_polymatroid(f, x) == (False, 0b001)


def test_k_times_a_table_matches_its_definition():
    # k f(U) as k copies of f(U) added up, on entries of either sign at or past 2^70
    rng = random.Random(54)
    values = [0] + [rng.choice((-1, 1)) * (2**70 + rng.randint(0, 2**72)) for _ in range(63)]
    for k in (1, 2, 3, 7):
        assert list(_times(values, k)) == [sum(itertools.repeat(v, k)) for v in values]
    assert _times(values, 1) is values


@pytest.mark.parametrize("k", [0.5, 1.0, Fraction(1), True, 0, -2])
def test_polytope_queries_refuse_a_multiplicity_that_is_not_a_positive_int(k):
    message = f"multiplicity must be a positive integer, got {k!r}"
    for query in (in_extended_polymatroid, minimal_face_of_point):
        with pytest.raises(UsageError) as err:
            query(u12(), (1, 0), k)
        assert str(err.value) == message


class TestBlocksAreFullDimensional:
    """A block of a maximal tight chain has no proper tight set of its own:
    with one, U, the set A_{i-1} | U would be tight for the face and lie
    strictly between two sets of the chain.  ``decompose`` relies on this
    to factor only at the root."""

    def test_blocks_of_faces_do_not_factor(self):
        rng = random.Random(47)
        for name, f in acceptance_corpus() + flat_corpus():
            k = rng.randint(1, 6)
            x = sample_target(f, k, rng)
            for fs in (face_structure(f), minimal_face_of_point(f, x, k)):
                for block_fn in block_fns(f, fs):
                    assert face_structure(block_fn).t == 1, (name, x, k)


def hrep_vertices(f):
    """Oracle: vertices by solving all candidate tight systems exactly."""
    n = f.ground.n
    full = f.ground.full_mask
    masks = [m for m in range(1, full)]  # proper nonempty subsets
    found = set()
    for combo in itertools.combinations(masks, n - 1):
        rows = [[Fraction(1)] * n]  # x(E) = f(E)
        rhs = [Fraction(f(full))]
        for m in combo:
            rows.append([Fraction(1 if m >> i & 1 else 0) for i in range(n)])
            rhs.append(Fraction(f(m)))
        x = _solve_or_none(rows, rhs)
        if x is None:
            continue
        sums = {
            mask: sum(x[i] for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
        }
        if all(sums[mask] <= f(mask) for mask in range(1 << n)):
            found.add(tuple(x))
    return found


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
    return [aug[r][n] for r in range(n)]


class TestVertexCover:
    def test_greedy_set_equals_hrep_enumeration(self):
        for _, f in tiny_instances():
            if f.ground.n > 4:
                continue
            greedy = {
                tuple(Fraction(v) for v in greedy_vertex(f, order))
                for order in itertools.permutations(range(f.ground.n))
            }
            assert greedy == hrep_vertices(f)


# ---------------------------------------------------------------------------
# per-mask references for the single-pass table queries
# ---------------------------------------------------------------------------

def one_mask_in_extended_polymatroid(f, x):
    """Reference membership scan: the first mask with x(U) > f(U)."""
    for mask, (s, v) in enumerate(zip(subset_sums(x), f.values)):
        if s > v:
            return False, mask
    return True, None


def one_mask_tight_sets(f):
    """Reference: every U with f(U) + f(E - U) = f(E), one mask at a time."""
    v = f.values
    return [m for m, (a, b) in enumerate(zip(v, reversed(v))) if a + b == v[-1]]


def one_mask_point_tight_family(f, x):
    """Reference: every U with x(U) = f(U), one mask at a time."""
    return [m for m, (s, v) in enumerate(zip(subset_sums(x), f.values)) if s == v]


def rescan_maximal_chain(tight, full):
    """Reference chain: each step rescans the whole family for the first
    strict superset of the current set."""
    chain = [0]
    cur = 0
    while cur != full:
        for cand in tight:
            if cand != cur and cand & cur == cur:
                chain.append(cand)
                cur = cand
                break
        else:
            raise UsageError("tight family has no superset step; not a lattice?")
    return tuple(chain)


def _chain_or_error(chain_fn, family, full):
    try:
        return chain_fn(family, full)
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(2, 11))
def test_table_queries_match_per_mask_references(n):
    rng = random.Random(4100 + n)
    g = ground(n)
    full = g.full_mask
    outcomes = set()
    scaled_outcomes = set()
    for trial in range(6):
        f = random_table(g, rng)
        if trial % 2:
            # a flat polytope: capping one coordinate at its lower bound
            f = f.reduce_at(g.elements[rng.randrange(n)], bounding_box(f)[0][0])
        vertex = greedy_vertex(f, rng.sample(range(n), n))
        points = [vertex, [v + rng.randint(-2, 2) for v in vertex]]
        points.append([v + (1 if i == rng.randrange(n) else 0) for i, v in enumerate(vertex)])
        for x in points:
            expected = one_mask_in_extended_polymatroid(f, x)
            assert in_extended_polymatroid(f, x) == expected
            outcomes.add(expected[0])
            family = one_mask_point_tight_family(f, x)
            assert point_tight_family(f, x) == family
            assert _chain_or_error(_maximal_chain, family, full) == _chain_or_error(
                rescan_maximal_chain, family, full
            )
        family = one_mask_tight_sets(f)
        assert tight_sets(f) == family
        assert _maximal_chain(family, full) == rescan_maximal_chain(family, full)
        # queries on k B_f read f's table and must answer as on the scaled table
        for k in (1, 2, 5):
            scaled = f.scale(k)
            for x in points:
                p = [k * v for v in x]
                i, j = rng.sample(range(n), 2)
                moved = [v + (i == m) - (j == m) for m, v in enumerate(p)]
                for y in (p, moved, [v + rng.randint(-1, 1) for v in p]):
                    member = in_extended_polymatroid(f, y, k)
                    assert member == in_extended_polymatroid(scaled, y)
                    face = _face_or_error(f, y, k)
                    assert face == _face_or_error(scaled, y, 1)
                    scaled_outcomes.add((member[0], isinstance(face, str)))
    assert outcomes == {True, False}
    assert scaled_outcomes == {(True, False), (True, True), (False, True)}


def _face_or_error(f, x, k):
    try:
        return minimal_face_of_point(f, x, k)
    except UsageError as exc:
        return str(exc)


def test_maximal_chain_matches_rescan_on_arbitrary_sorted_families():
    # families that are not lattices, with or without the empty set and E:
    # the same chain, or the same error, as the rescan
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        family = sorted(rng.sample(range(full + 1), rng.randint(1, full + 1)))
        assert _chain_or_error(_maximal_chain, family, full) == _chain_or_error(
            rescan_maximal_chain, family, full
        )
