"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criteria 1, 3, 4 and 8 share state:
criterion 1 collects certificates and LP statistics that criteria 4 and 8
audit afterwards, so this module's tests run in definition order.
"""

import itertools
import random
import time

import polybase.lp as lp
from corpus import (
    acceptance_corpus,
    attaining_tiny,
    block_fns,
    flat_corpus,
    sample_target,
    tiny_instances,
)
from polybase import (
    cr_exact,
    decompose,
    dimension,
    enumerate_base_points,
    face_structure,
    in_base_polytope,
    merge_direct_sum,
    split_into_k_bases,
    verify,
    WeightedDecomposition,
)
from polybase.cli import certificate_dict, to_json

PAIRS_PER_INSTANCE = 20
K_MAX = 25

_STATE = {
    "stats0": dict(lp.stats),
    "certificates": None,
}


def _corpus_pairs(f, seed):
    """Deterministic (w, k) samples for one instance; shared by 1 and 8."""
    rng = random.Random(seed)
    for _ in range(PAIRS_PER_INSTANCE):
        k = rng.randint(1, K_MAX)
        yield sample_target(f, k, rng), k


def _run_corpus():
    corpus = acceptance_corpus()
    assert len(corpus) >= 200
    certificates = {}
    for idx, (label, f) in enumerate(corpus):
        bound = dimension(f) + 1
        for j, (w, k) in enumerate(_corpus_pairs(f, seed=1000 + idx)):
            dec, trace = decompose(f, w, k)
            ok, failures = verify(f, dec)
            assert ok, (label, w, k, failures)
            assert dec.distinct_count <= bound, (label, w, k)
            certificates[(label, j)] = to_json(certificate_dict(f, w, k, dec, trace.dim))
    return corpus, certificates


def test_criterion_1_cardinality_bound():
    """Every corpus decomposition stays within dim B_f + 1 distinct bases."""
    start = time.time()
    corpus, certificates = _run_corpus()
    _STATE["certificates"] = certificates
    elapsed = time.time() - start
    runs = len(certificates)
    print(
        f"criterion 1 (cardinality bound dim+1): PASS "
        f"[{len(corpus)} instances, {runs} decompositions, {elapsed:.1f}s]"
    )


def test_criterion_2_lower_bound_attained():
    """Exhaustive search reaches exactly dim + 1 on the tiny instances."""
    instances = attaining_tiny()
    assert len(instances) >= 10
    for label, f in instances:
        assert f.ground.n <= 5
        got = cr_exact(f, 4)
        want = dimension(f) + 1
        assert got == want, (label, got, want)
    print(f"criterion 2 (lower bound attained): PASS [{len(instances)} tiny instances]")


def test_criterion_3_integer_decomposition_property():
    """split_into_k_bases returns exactly k bases summing to the input."""
    rng = random.Random(31337)
    checked = 0
    for idx, (label, f) in enumerate(acceptance_corpus()):
        ks = [rng.randint(2, 6)]
        if f.ground.n <= 3 and idx % 5 == 0:
            ks.append(K_MAX)
        for k in ks:
            x = sample_target(f, k, rng)
            parts = split_into_k_bases(f, x, k)
            assert len(parts) == k, (label, k)
            assert tuple(map(sum, zip(*parts))) == x, (label, x, k)
            for p in parts:
                assert in_base_polytope(f, p), (label, p)
            checked += 1
    print(f"criterion 3 (integer decomposition property): PASS [{checked} splits]")


def test_criterion_4_vertex_integrality():
    """Zero non-integral vertices over everything run so far."""
    found = lp.stats["vertices_found"] - _STATE["stats0"]["vertices_found"]
    integral = lp.stats["integral_vertices"] - _STATE["stats0"]["integral_vertices"]
    bad = lp.stats["nonintegral_vertices"] - _STATE["stats0"]["nonintegral_vertices"]
    if found == 0:  # standalone invocation: generate some vertices
        test_criterion_1_cardinality_bound()
        found = lp.stats["vertices_found"] - _STATE["stats0"]["vertices_found"]
        integral = lp.stats["integral_vertices"] - _STATE["stats0"]["integral_vertices"]
        bad = lp.stats["nonintegral_vertices"] - _STATE["stats0"]["nonintegral_vertices"]
    assert found > 0
    assert bad == 0
    assert integral == found
    print(f"criterion 4 (vertex integrality): PASS [{found} vertices, 0 fractional]")


def test_criterion_5_face_factorization():
    """Direct sums of face blocks reproduce the integer points exactly."""
    corpus = flat_corpus(50)
    assert len(corpus) >= 50
    for label, f in corpus:
        n = f.ground.n
        fs = face_structure(f)
        assert fs.dim < n - 1, label
        whole = set(enumerate_base_points(f))
        block_points = [enumerate_base_points(fn) for fn in block_fns(f, fs)]
        combined = {
            fs.scatter(combo) for combo in itertools.product(*block_points)
        }
        assert combined == whole, label
    print(f"criterion 5 (face factorization): PASS [{len(corpus)} flat instances]")


def test_criterion_6_construction_identities():
    """Dual involution, reflection, translation and restriction identities."""
    rng = random.Random(606)
    checked = 0
    for label, f in tiny_instances():
        if f.ground.n > 4:
            continue
        subsets = list(f.ground.subsets())
        dd = f.dual().dual()
        assert all(dd(m) == f(m) for m in subsets), label

        pts = set(enumerate_base_points(f))
        mirrored = {tuple(-v for v in p) for p in pts}
        assert set(enumerate_base_points(f.dual())) == mirrored, label

        a = tuple(rng.randint(-3, 3) for _ in range(f.ground.n))
        translated = {tuple(v + d for v, d in zip(p, a)) for p in pts}
        assert set(enumerate_base_points(f.shift(a))) == translated, label

        cap = min(p[0] for p in pts) + (max(p[0] for p in pts) - min(p[0] for p in pts)) // 2
        restricted = {p for p in pts if p[0] <= cap}
        assert restricted, label
        element = f.ground.elements[0]
        assert set(enumerate_base_points(f.reduce_at(element, cap))) == restricted, label
        checked += 1
    assert checked >= 10
    print(f"criterion 6 (construction identities): PASS [{checked} instances]")


def test_criterion_7_merge_bound():
    """1000 random interleavings obey q <= sum of sizes - (t-1) and re-sum."""
    rng = random.Random(707)
    for trial in range(1000):
        k = rng.randint(1, 40)
        parts = []
        total = 0
        for _ in range(rng.randint(1, 5)):
            weights = _composition(k, rng)
            points = _distinct_points(len(weights), rng.randint(1, 3), rng)
            terms = list(zip(weights, points))
            target = tuple(
                sum(wt * p[i] for wt, p in terms) for i in range(len(points[0]))
            )
            parts.append(WeightedDecomposition.from_terms(terms, target, k))
            total += len(parts[-1].terms)
        merged = merge_direct_sum(parts)
        assert merged.distinct_count <= total - (len(parts) - 1), trial
        expect = tuple(itertools.chain.from_iterable(p.target for p in parts))
        assert merged.target == expect
        for i in range(len(expect)):
            assert sum(wt * p[i] for wt, p in merged.terms) == expect[i]
    print("criterion 7 (merge bound): PASS [1000 random splittings]")


def test_criterion_8_determinism():
    """Re-running the full corpus reproduces byte-identical certificates."""
    if _STATE["certificates"] is None:
        test_criterion_1_cardinality_bound()
    first = _STATE["certificates"]
    _, second = _run_corpus()
    assert first == second
    print(f"criterion 8 (determinism): PASS [{len(first)} certificates byte-identical]")


def _composition(k, rng):
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, min(k - 1, 5)))) if k > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [k])]


def _distinct_points(count, width, rng):
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randint(-6, 6) for _ in range(width)))
    return sorted(points)
