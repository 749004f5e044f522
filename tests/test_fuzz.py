"""Fuzz the instance parser and the decompose verb with arbitrary JSON,
and ``verify`` with malformed certificates.

Every document, well formed or not, must end in a documented outcome:
``parse_instance`` raises only ParseError or UsageError, and
``polybase decompose``, with and without ``--trace``, exits 0, 1 or 2
with no traceback on stderr.
Documents are free-form JSON, or valid instances (n <= 4) with one field
replaced (by free-form JSON, or a small integer or a known name where the
field held one) or deleted.
A certificate with a weight or multiplicity that is not an int, no terms,
terms that are not a tuple or list, a term that is not a pair, a point
given as a list, or a target that is short or not a tuple fails
``verify`` without raising.
Every public callable that takes values refuses a wrong one (None, a str,
a float, a bool, -1, a list for a tuple, a tuple of the wrong length) with
a documented error only.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybase
from polybase import (
    BudgetExceeded,
    GroundSet,
    InvariantViolation,
    ParseError,
    UniformRank,
    UsageError,
    WeightedDecomposition,
    parse_instance,
    verify,
)
from polybase.cli import main

# keys and names the parser looks for, so that mutations reach deep branches
WORDS = ["a", "b", "c", "type", "inner", "values", "rank", "table", "dual", "a,b"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)

UNIFORM = {"type": "uniform", "rank": 2}

VALID_DOCS = [
    {
        "ground": ["a", "b"],
        "f": {"type": "table", "values": {"": 0, "a": 1, "b": 1, "a,b": 1}},
        "w": [1, 1],
        "k": 2,
    },
    {"ground": ["a", "b", "c", "d"], "f": UNIFORM, "w": [1, 1, 1, 1], "k": 2},
    {
        "ground": ["a", "b", "c"],
        "f": {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
        "w": [2, 2, 2],
        "k": 3,
    },
    {
        "ground": ["a", "b", "c"],
        "f": {"type": "partition", "blocks": [["a", "b"], ["c"]], "caps": [1, 1]},
        "w": [1, 1, 2],
        "k": 2,
    },
    {
        "ground": ["a", "b", "c"],
        "f": {
            "type": "shift",
            "a": [1, 0, -1],
            "inner": {
                "type": "scale",
                "r": 2,
                "inner": {
                    "type": "reduce",
                    "a": [2, 1, 1],
                    "inner": {"type": "reduce_at", "e": "b", "c": 1, "inner": UNIFORM},
                },
            },
        },
        "w": [4, 4, 0],
        "k": 2,
    },
    {
        "ground": ["a", "b", "c"],
        "f": {"type": "dual", "inner": {"type": "uniform", "rank": 1}},
        "w": [-1, 0, -1],
        "k": 2,
    },
]


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_instances(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    *route, last = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for step in route:
        parent = parent[step]
    old = parent[last]
    if draw(st.integers(0, 3)) == 0:
        del parent[last]
    elif isinstance(old, int):
        # small integers of either sign reach the range checks behind parsing
        parent[last] = draw(json_values | st.integers(-3, 6))
    elif isinstance(old, str):
        parent[last] = draw(json_values | st.sampled_from(WORDS + ["d", "uniform", "scale"]))
    else:
        parent[last] = draw(json_values)
    return doc


documents = json_values | mutated_instances()


def run_decompose(doc, *flags):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["decompose", path, *flags])
    finally:
        os.unlink(path)
    return code, err.getvalue()


def test_seed_instances_decompose():
    for doc in VALID_DOCS:
        assert run_decompose(doc) == (0, "")


@settings(max_examples=300, deadline=None)
@given(doc=documents)
def test_parse_instance_raises_only_documented_errors(doc):
    try:
        parse_instance(doc)
    except (ParseError, UsageError):
        pass


@settings(max_examples=150, deadline=None)
@given(doc=documents)
def test_decompose_exits_with_a_documented_code(doc):
    for flags in ((), ("--trace",)):
        code, err = run_decompose(doc, *flags)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err


U24 = UniformRank(GroundSet("abcd"), 2)
U24_CERTIFICATE = WeightedDecomposition(
    ((1, (0, 1, 1, 0)), (1, (1, 0, 0, 1)), (1, (1, 1, 0, 0))), (2, 2, 1, 1), 3)
not_ints = (st.booleans() | st.floats() | st.fractions()
            | st.integers().map(float) | st.integers().map(Fraction))


@st.composite
def malformed_certificates(draw):
    terms, target, k = U24_CERTIFICATE.terms, U24_CERTIFICATE.target, U24_CERTIFICATE.multiplicity
    flaw = draw(st.sampled_from(["weight", "multiplicity", "no terms", "short target",
                                 "list point", "not a pair", "terms", "target"]))
    i = draw(st.integers(0, len(terms) - 1))
    if flaw == "weight":
        wt = draw(not_ints | st.none() | st.text(max_size=2))
        terms = terms[:i] + ((wt, terms[i][1]),) + terms[i + 1:]
    elif flaw == "multiplicity":
        k = draw(not_ints)
    elif flaw == "no terms":
        terms = ()
    elif flaw == "short target":
        target = target[:draw(st.integers(0, len(target) - 1))]
    elif flaw == "list point":
        terms = terms[:i] + ((terms[i][0], list(terms[i][1])),) + terms[i + 1:]
    elif flaw == "not a pair":
        bad = draw(st.none() | st.integers() | st.tuples() | st.tuples(st.integers())
                   | st.just(terms[i] + (0,)) | st.just(list(terms[i])))
        terms = terms[:i] + (bad,) + terms[i + 1:]
    elif flaw == "terms":
        terms = draw(st.none() | st.integers() | st.just(set(terms)))
    else:
        target = draw(st.none() | st.integers() | st.just(list(target)))
    return WeightedDecomposition(terms, target, k)


@settings(max_examples=200, deadline=None)
@given(dec=malformed_certificates())
def test_verify_fails_malformed_certificates(dec):
    assert verify(U24, U24_CERTIFICATE) == (True, [])
    ok, failures = verify(U24, dec)
    assert ok is False and failures


# ---------------------------------------------------------------------------
# the library's typed boundary
# ---------------------------------------------------------------------------

G3 = GroundSet("abc")
U23 = UniformRank(G3, 2)
W3, K3 = (2, 2, 2), 3
TERMS3 = ((1, (0, 1, 1)), (1, (1, 0, 1)), (1, (1, 1, 0)))
U23_DOC = {"ground": ["a", "b", "c"], "f": {"type": "uniform", "rank": 2}, "w": [2, 2, 2], "k": 3}
INSTANCE_PATH = object()  # stands for the path of a file holding U23_DOC

# public callable -> (the callable, one valid call's arguments, positions of its value arguments)
VALUE_CALLS = {
    "BlockRestrictFn": (polybase.BlockRestrictFn, (U23, 1, 6), (1, 2)),
    "GraphicRank": (polybase.GraphicRank, (G3, 3, ((0, 1), (1, 2), (0, 2))), (1, 2)),
    "GroundSet": (GroundSet, (("a", "b", "c"), 12), (0, 1)),
    "GroundSet.index": (G3.index, ("a",), (0,)),
    "GroundSet.mask_of": (G3.mask_of, (("a", "b"),), (0,)),
    "GroundSet.names_of": (G3.names_of, (3,), (0,)),
    "PartitionRank": (polybase.PartitionRank, (G3, (1, 6), (1, 1)), (1, 2)),
    "PointSet.__contains__": (polybase.enumerate_base_points(U23).__contains__,
                              ((1, 1, 0),), (0,)),
    "ReduceAtFn": (polybase.ReduceAtFn, (U23, "a", 1), (1, 2)),
    "ReduceFn": (polybase.ReduceFn, (U23, (1, 1, 1)), (1,)),
    "ScaleFn": (polybase.ScaleFn, (2, U23), (0,)),
    "ShiftFn": (polybase.ShiftFn, (U23, (1, 0, 0)), (1,)),
    "SubmodularFn": (polybase.SubmodularFn, (G3, U23.values), (1,)),
    "SubmodularFn.__call__": (U23, (3,), (0,)),
    "SubmodularFn.block_restrict": (U23.block_restrict, (1, 6), (0, 1)),
    "SubmodularFn.reduce": (U23.reduce, ((1, 1, 1),), (0,)),
    "SubmodularFn.reduce_at": (U23.reduce_at, ("a", 1), (0, 1)),
    "SubmodularFn.scale": (U23.scale, (2,), (0,)),
    "SubmodularFn.shift": (U23.shift, ((1, 0, 0),), (0,)),
    "TableFn": (polybase.TableFn, (G3, U23.values), (1,)),
    "UniformRank": (UniformRank, (G3, 2), (1,)),
    "WeightedDecomposition.from_terms": (WeightedDecomposition.from_terms,
                                         (TERMS3, W3, K3), (0, 1, 2)),
    "assert_integral": (polybase.assert_integral, ((1, 1, 0),), (0,)),
    "build_intersection_system": (polybase.build_intersection_system,
                                  (G3, U23.values, U23.values), (1, 2)),
    "cr_exact": (polybase.cr_exact, (U23, 2), (1,)),
    "decompose": (polybase.decompose, (U23, W3, K3), (1, 2)),
    "greedy_vertex": (polybase.greedy_vertex, (U23, (2, 0, 1)), (1,)),
    "in_base_polytope": (polybase.in_base_polytope, (U23, (1, 1, 0)), (1,)),
    "in_extended_polymatroid": (polybase.in_extended_polymatroid, (U23, W3, K3), (1, 2)),
    "load_instance": (polybase.load_instance, (INSTANCE_PATH, 12), (0, 1)),
    "min_decomposition_size": (polybase.min_decomposition_size, (U23, W3, K3), (1, 2)),
    "minimal_face_of_point": (polybase.minimal_face_of_point, (U23, W3, K3), (1, 2)),
    "parse_fn": (polybase.parse_fn, (G3, U23_DOC["f"]), (1,)),
    "parse_instance": (parse_instance, (U23_DOC, 12), (0, 1)),
    "point_tight_family": (polybase.point_tight_family, (U23, (1, 1, 0)), (1,)),
    "split_into_k_bases": (polybase.split_into_k_bases, (U23, W3, K3), (1, 2)),
}
# callables whose every argument is an object the library built (functions,
# traces, systems, decompositions or a sequence of them): a wrong kind there
# raises TypeError or AttributeError, as Python does
OBJECT_CALLS = {
    "DualFn", "bounding_box", "dimension", "dump_system", "enumerate_base_points",
    "enumerate_vertices", "face_structure", "find_vertex", "is_matroid_rank", "is_submodular",
    "materialize", "merge_direct_sum", "node_dict", "replay", "tight_sets", "trace_dict",
    "verify",
}
# records hold the fields they are given; their checked constructor is
# WeightedDecomposition.from_terms, and FaceStructure's methods are the
# engine's own arithmetic on faces it derived
RECORDS = {"ConstraintSystem", "DecompositionTrace", "FaceStructure", "InstanceFile",
           "PointSet", "WeightedDecomposition"}
NOT_CALLED = {"DEFAULT_GROUND_LIMIT", "BudgetExceeded", "InvariantViolation", "ParseError",
              "UsageError"}
BOUNDARY_CASES = [(name, pos) for name, (_, _, positions) in VALUE_CALLS.items()
                  for pos in positions]


def test_boundary_table_names_every_public_callable():
    methods = {name for name in VALUE_CALLS if "." in name}
    listed = (VALUE_CALLS.keys() - methods) | OBJECT_CALLS | RECORDS | NOT_CALLED
    assert sorted(listed) == sorted(polybase.__all__)


def wrong_values(valid):
    """None, a str, a float, a bool and -1, and a list or a tuple of the wrong length."""
    out = [None, "x", "", "a,b", 1.5, float("nan"), True, False, -1]
    if isinstance(valid, tuple):
        out += [list(valid), valid + valid[:1], valid[:-1]]
    else:
        out.append((valid, valid))
    return out


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "u23.json"
    path.write_text(json.dumps(U23_DOC))
    return str(path)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(BOUNDARY_CASES), data=st.data())
def test_public_callables_refuse_wrong_values_with_documented_errors(instance_path, case, data):
    name, pos = case
    call, args, _ = VALUE_CALLS[name]
    args = [instance_path if a is INSTANCE_PATH else a for a in args]
    args[pos] = data.draw(st.sampled_from(wrong_values(args[pos])) | st.text(max_size=3)
                          | st.floats() | st.integers(-9, -1), label=f"{name} argument {pos}")
    try:
        call(*args)
    except (UsageError, ParseError, BudgetExceeded, InvariantViolation):
        pass
