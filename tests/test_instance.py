"""Unit tests for the JSON instance format."""

import json
import os
import random
import sys
import threading

import pytest

from corpus import acceptance_corpus, flat_corpus, ground, k3, sample_target, tiny_instances
from polybase import (
    GroundSet,
    ParseError,
    PartitionRank,
    SubmodularFn,
    TableFn,
    UniformRank,
    UsageError,
    decompose,
    load_instance,
    materialize,
    node_dict,
    parse_fn,
    parse_instance,
    trace_dict,
)
from polybase.instance import table_keys


def table_doc():
    return {
        "ground": ["a", "b"],
        "f": {
            "type": "table",
            "values": {"a": 1, "b": 1, "a,b": 1},
        },
        "w": [1, 1],
        "k": 2,
    }


U24_DOC = {"ground": ["a", "b", "c", "d"], "f": {"type": "uniform", "rank": 2}}


class TestParseInstance:
    def test_limit_is_an_argument(self):
        with pytest.raises(ParseError, match=r"size 4 outside \[1, 3\]"):
            parse_instance(U24_DOC, 3)
        assert parse_instance(U24_DOC).ground.n == 4
        for limit in ("3", 2.5, True, None):
            with pytest.raises(UsageError, match="ground set size limit must be an integer"):
                parse_instance(U24_DOC, limit)

    def test_threads_parse_with_their_own_limits(self):
        # thread a stops on reading its ground until thread b, under limit 3,
        # reads its own, so a cap held in process state would refuse a's ground
        b_reading, a_done = threading.Event(), threading.Event()

        class Doc(dict):
            def __init__(self, on_ground):
                super().__init__(U24_DOC)
                self.on_ground = on_ground

            def __getitem__(self, key):
                if key == "ground":
                    self.on_ground()
                return super().__getitem__(key)

        results = {}

        def run(name, doc, limit):
            try:
                results[name] = parse_instance(doc, limit).ground.n
            except ParseError as exc:
                results[name] = str(exc)
            finally:
                if name == "a":
                    a_done.set()

        threads = [
            threading.Thread(target=run, args=("a", Doc(lambda: b_reading.wait(10)), 4)),
            threading.Thread(target=run, args=(
                "b", Doc(lambda: (b_reading.set(), a_done.wait(10))), 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {"a": 4, "b": "ground set size 4 outside [1, 3]"}

    def test_table_with_defaulted_empty_set(self):
        inst = parse_instance(table_doc())
        assert inst.fn(0) == 0
        assert inst.fn(0b11) == 1
        assert inst.w == (1, 1)
        assert inst.k == 2

    def test_explicit_empty_key(self):
        doc = table_doc()
        doc["f"]["values"][""] = 0
        assert parse_instance(doc).fn(0) == 0

    def test_missing_subset_key(self):
        doc = table_doc()
        del doc["f"]["values"]["a,b"]
        with pytest.raises(ParseError, match="missing"):
            parse_instance(doc)

    def test_non_canonical_key(self):
        doc = table_doc()
        doc["f"]["values"]["b,a"] = 1
        with pytest.raises(ParseError, match="canonical"):
            parse_instance(doc)

    def test_unknown_node_type(self):
        doc = table_doc()
        doc["f"] = {"type": "mystery"}
        with pytest.raises(ParseError, match="unknown"):
            parse_instance(doc)

    def test_w_length_checked(self):
        doc = table_doc()
        doc["w"] = [1]
        with pytest.raises(ParseError, match="length"):
            parse_instance(doc)

    def test_non_integer_value(self):
        doc = table_doc()
        doc["f"]["values"]["a"] = 1.5
        with pytest.raises(ParseError, match="integer"):
            parse_instance(doc)

    def test_duplicate_ground_names(self):
        doc = table_doc()
        doc["ground"] = ["a", "a"]
        with pytest.raises(ParseError, match="distinct"):
            parse_instance(doc)


class TestNodeKinds:
    def test_uniform(self):
        f = parse_fn(ground(3), {"type": "uniform", "rank": 2})
        assert f(0b111) == 2

    def test_partition(self):
        f = parse_fn(
            ground(4),
            {"type": "partition", "blocks": [["a", "b"], ["c", "d"]], "caps": [1, 1]},
        )
        assert f(0b1111) == 2
        assert f(0b0011) == 1

    def test_graphic(self):
        f = parse_fn(
            ground(3),
            {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
        )
        assert [f(m) for m in range(8)] == [k3()(m) for m in range(8)]

    def test_nested_wrappers(self):
        node = {
            "type": "scale",
            "r": 2,
            "inner": {
                "type": "shift",
                "a": [1, 0, -1],
                "inner": {
                    "type": "dual",
                    "inner": {"type": "uniform", "rank": 2},
                },
            },
        }
        f = parse_fn(ground(3), node)
        expect = ground(3)
        reference = UniformRank(expect, 2).dual().shift((1, 0, -1)).scale(2)
        assert all(f(m) == reference(m) for m in range(8))

    def test_reduce_and_reduce_at(self):
        f = parse_fn(
            ground(2),
            {"type": "reduce", "a": [0, 1], "inner": {"type": "uniform", "rank": 1}},
        )
        g = parse_fn(
            ground(2),
            {"type": "reduce_at", "e": "a", "c": 0,
             "inner": {"type": "uniform", "rank": 1}},
        )
        assert f(0b11) == 1
        assert g(0b01) == 0

    @pytest.mark.parametrize("endpoint", ["x", 1.7, True])
    def test_graphic_endpoint_must_be_integer(self, endpoint):
        node = {"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, endpoint]]}
        with pytest.raises(ParseError, match="integer"):
            parse_fn(ground(2), node)

    @pytest.mark.parametrize(
        "blocks", [["ab"], "ab", [["a"], "b"], [["a", 1]], [["a", "a"], ["b"]]]
    )
    def test_partition_blocks_must_be_name_arrays(self, blocks):
        node = {"type": "partition", "blocks": blocks, "caps": [1] * len(blocks)}
        with pytest.raises(ParseError, match="blocks"):
            parse_fn(ground(2), node)

    def test_round_trip_through_node_dict(self):
        # one node of each of the ten types, the wrappers over a small rank
        # function; a block_restrict parses on its inner node's ground
        g = ground(3)
        rank = k3()
        nodes = [
            materialize(rank.dual().shift((1, 1, 1))),
            UniformRank(g, 2),
            PartitionRank(g, [0b011, 0b100], [1, 1]),
            rank,
            rank.dual(),
            rank.shift((1, 0, 2)),
            rank.reduce((1, 1, 0)),
            rank.reduce_at("a", 0),
            rank.scale(3),
            rank.block_restrict(0b001, 0b110),
        ]
        kinds = {node_dict(fn)["type"] for fn in nodes}
        assert len(kinds) == len(nodes) == 10
        for fn in nodes:
            again = parse_fn(g, node_dict(fn))
            assert again.ground == fn.ground and again.values == fn.values

    @pytest.mark.parametrize("cls", [SubmodularFn, type("CappedTable", (TableFn,), {})])
    def test_node_dict_refuses_a_class_it_does_not_know(self, cls):
        with pytest.raises(TypeError, match=f"^{cls.__name__} has no instance node type$"):
            node_dict(cls(ground(1), (0, 1)))

    def test_table_keys_spell_sorted_names_per_mask(self):
        rng = random.Random(12)
        for n in range(1, 11):
            names = [f"{c}{rng.randint(0, 99)}" for c in "kcjafhbgdi"[:n]]
            g = GroundSet(names)
            assert table_keys(g) == [",".join(sorted(g.names_of(m))) for m in g.subsets()]

    @pytest.mark.parametrize("names", [["a", "b", "a,b"], ["a", ""], [1], ["a", 1]])
    def test_table_keys_refuse_names_they_cannot_spell(self, names):
        # "a,b" would spell {a, b} twice, "" the empty set twice, and 1 is no name
        with pytest.raises(UsageError, match=f"cannot spell element {names[-1]!r}"):
            node_dict(materialize(UniformRank(GroundSet(names), 2)))

    def test_a_ground_of_non_names_is_refused_before_any_node(self):
        # a partition over names 1, 2, 3 once wrote blocks parse_fn refuses, and
        # decompose joined those names into a raw TypeError
        with pytest.raises(UsageError, match="cannot spell element 1: not a string"):
            decompose(PartitionRank(GroundSet([1, 2, 3]), [1, 6], [1, 1]), (1, 1, 2), 2)
        with pytest.raises(UsageError, match="cannot spell element 1: not a string"):
            node_dict(PartitionRank(GroundSet([1, 2, 3]), [1, 6], [1, 1]))
        f = PartitionRank(GroundSet(["1", "2", "3"]), [1, 6], [1, 1])
        assert parse_fn(f.ground, node_dict(f)).values == f.values

    def test_block_restrict_lives_on_the_block(self):
        inst = parse_instance({
            "ground": ["a", "b", "c"],
            "f": {"type": "block_restrict", "a_prev": ["a"], "block": ["b", "c"],
                  "inner": {"type": "uniform", "rank": 2}},
            "w": [1, 1],
            "k": 2,
        })
        assert inst.ground.elements == ("b", "c")
        assert inst.fn.values == (0, 1, 1, 1)

    @pytest.mark.parametrize("a_prev, block", [
        ("ab", ["c"]), (["a"], "c"), (["a", 1], ["c"]), (["a", "a"], ["b", "c", "b"]),
        (["a"], ["b", "c", "b"]),
    ])
    def test_block_restrict_masks_must_be_name_arrays(self, a_prev, block):
        node = {"type": "block_restrict", "a_prev": a_prev, "block": block,
                "inner": {"type": "uniform", "rank": 1}}
        with pytest.raises(ParseError, match="element names"):
            parse_fn(ground(3), node)

    def test_trace_functions_round_trip(self):
        # every function dict a trace prints parses on f's ground, to a
        # function on its node's ground (below the root, a block restriction
        # of f) that node_dict writes back as the same dict
        rng = random.Random(60)
        restricted = 0
        for _, f in tiny_instances() + flat_corpus():
            k = rng.randint(1, 6)
            _, trace = decompose(f, sample_target(f, k, rng), k)
            for node, doc in zip(_nodes(trace), _printed(trace_dict(f, trace)), strict=True):
                keys = ("fn_reduced", "fn_left", "fn_right")
                for fn_doc in (doc[key] for key in keys if key in doc):
                    again = parse_fn(f.ground, fn_doc)
                    assert again.ground.elements == node.ground
                    assert node_dict(again) == fn_doc
                    restricted += '"block_restrict"' in json.dumps(fn_doc)
        assert restricted


def _nodes(trace):
    yield trace
    for child in trace.children:
        yield from _nodes(child)


def _printed(doc):
    yield doc
    for child in doc.get("children", ()):
        yield from _printed(child)


def test_printing_a_trace_builds_no_function(monkeypatch):
    # every node's function is printed as wrapper nodes around the one node
    # of f, which node_dict writes once per trace, spelling table keys at most once
    rng = random.Random(1)
    traces = []
    for _, f in acceptance_corpus() + flat_corpus():
        k = rng.randint(1, 25)
        traces.append((f, decompose(f, sample_target(f, k, rng), k)[1]))
    built, roots, nested, keyed = [], [], [], []  # nested: node_dict calls under way
    init = SubmodularFn.__init__
    module = sys.modules["polybase.instance"]
    write, spell = module.node_dict, module.table_keys

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    def writing(fn):
        if not nested:
            roots.append(fn)
        nested.append(fn)
        try:
            return write(fn)
        finally:
            nested.pop()

    def spelling(ground):
        keyed.append(ground)
        return spell(ground)

    monkeypatch.setattr(SubmodularFn, "__init__", counting)
    monkeypatch.setattr(module, "node_dict", writing)
    monkeypatch.setattr(module, "table_keys", spelling)
    cases = []
    for f, trace in traces:
        roots.clear()
        keyed.clear()
        cases += [doc["case"] for doc in _printed(trace_dict(f, trace))]
        assert roots == [f] and len(keyed) <= 1
    assert built == []
    assert cases.count("split") and cases.count("face_drop")


def test_deep_nesting_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    depth = 3000
    path.write_text(
        '{"ground": ["a"], "f": '
        + '{"type": "scale", "r": 1, "inner": ' * depth
        + '{"type": "uniform", "rank": 1}'
        + "}" * depth
        + "}"
    )
    with pytest.raises(ParseError, match="nests too deeply"):
        load_instance(str(path))


def test_load_instance_reads_no_file_descriptor(tmp_path):
    # open() reads an int path as a descriptor and closes it on return; point
    # stdin and stdout at /dev/null meanwhile, so the check can never block
    saved = [os.dup(fd) for fd in (0, 1)]
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in (0, 1):
            os.dup2(null, fd)
        for path in (0, 1, True, False, -1, 1.5, None, b"inst.json"):
            with pytest.raises(UsageError, match="instance path must be a str or os.PathLike"):
                load_instance(path)
        for fd in (0, 1):
            os.fstat(fd)  # still open
    finally:
        for fd, copy in zip((0, 1), saved):
            os.dup2(copy, fd)
            os.close(copy)
        os.close(null)
    path = tmp_path / "u24.json"
    path.write_text(json.dumps(U24_DOC))
    assert load_instance(path).ground.n == 4
