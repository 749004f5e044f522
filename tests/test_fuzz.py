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
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polybase import (
    GroundSet,
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
