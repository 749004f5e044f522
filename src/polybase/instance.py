"""JSON instance files: parsing and validation.

An instance document is ``{"ground": [names...], "f": <node>}`` plus an
optional target ``"w"`` (integer array) and multiplicity ``"k"``.  Nodes
are explicit tables, the three matroid rank families, or wrappers (dual,
shift, reduce, reduce_at, scale) around an inner node.  Table keys are
comma-joined alphabetically sorted element names; the empty-set key may
be omitted (it is zero), every other subset key is required.
"""

from __future__ import annotations

import json

from .core import (
    Frozen,
    GraphicRank,
    GroundSet,
    PartitionRank,
    SubmodularFn,
    TableFn,
    UniformRank,
)
from .errors import ParseError, UsageError


class InstanceFile(Frozen):
    __slots__ = ("ground", "fn", "w", "k")

    def __init__(
        self,
        ground: GroundSet,
        fn: SubmodularFn,
        w: tuple[int, ...] | None,
        k: int | None,
    ):
        self._freeze(ground, fn, w, k)


def _need(node: dict, key: str, kind: str):
    if key not in node:
        raise ParseError(f"{kind} node is missing {key!r}")
    return node[key]


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array")
    return [_int(v, what) for v in value]


def parse_fn(ground: GroundSet, node) -> SubmodularFn:
    if not isinstance(node, dict):
        raise ParseError(f"function node must be an object, got {type(node).__name__}")
    kind = _need(node, "type", "function")
    try:
        if kind == "table":
            return _parse_table(ground, _need(node, "values", "table"))
        if kind == "uniform":
            return UniformRank(ground, _int(_need(node, "rank", "uniform"), "rank"))
        if kind == "partition":
            blocks_names = _need(node, "blocks", "partition")
            if not isinstance(blocks_names, list) or not all(
                isinstance(b, list) and all(isinstance(s, str) for s in b)
                for b in blocks_names
            ):
                raise ParseError("partition blocks must be arrays of element names")
            caps = _int_list(_need(node, "caps", "partition"), "caps")
            blocks = [ground.mask_of(names) for names in blocks_names]
            return PartitionRank(ground, blocks, caps)
        if kind == "graphic":
            vertices = _int(_need(node, "vertices", "graphic"), "vertices")
            edges = _need(node, "edges", "graphic")
            if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges
            ):
                raise ParseError("graphic edges must be an array of [u, v] pairs")
            pairs = [tuple(_int_list(e, "edge endpoint")) for e in edges]
            return GraphicRank(ground, vertices, pairs)
        if kind == "dual":
            return parse_fn(ground, _need(node, "inner", "dual")).dual()
        if kind == "shift":
            a = _int_list(_need(node, "a", "shift"), "shift vector")
            return parse_fn(ground, _need(node, "inner", "shift")).shift(a)
        if kind == "reduce":
            a = _int_list(_need(node, "a", "reduce"), "reduction vector")
            return parse_fn(ground, _need(node, "inner", "reduce")).reduce(a)
        if kind == "reduce_at":
            e = _need(node, "e", "reduce_at")
            c = _int(_need(node, "c", "reduce_at"), "cap")
            return parse_fn(ground, _need(node, "inner", "reduce_at")).reduce_at(e, c)
        if kind == "scale":
            r = _int(_need(node, "r", "scale"), "scale factor")
            return parse_fn(ground, _need(node, "inner", "scale")).scale(r)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown function node type {kind!r}")


def _parse_table(ground: GroundSet, values) -> TableFn:
    if not isinstance(values, dict):
        raise ParseError("table values must be an object")
    canonical = {}
    for mask in ground.subsets():
        canonical[",".join(sorted(ground.names_of(mask)))] = mask
    table = [None] * (1 << ground.n)
    for key, value in values.items():
        if key not in canonical:
            raise ParseError(f"table key {key!r} is not a canonical subset")
        table[canonical[key]] = _int(value, f"table value for {key!r}")
    if table[0] is None:
        table[0] = 0
    missing = [key for key, mask in canonical.items() if table[mask] is None]
    if missing:
        raise ParseError(f"table is missing {len(missing)} subset keys, e.g. {missing[0]!r}")
    return TableFn(ground, table)


def parse_instance(doc) -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    names = _need(doc, "ground", "instance")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ParseError("ground must be an array of element names")
    try:
        ground = GroundSet(tuple(names))
    except UsageError as exc:
        raise ParseError(str(exc)) from exc
    fn = parse_fn(ground, _need(doc, "f", "instance"))
    w = None
    if "w" in doc:
        w = tuple(_int_list(doc["w"], "w"))
        if len(w) != ground.n:
            raise ParseError(f"w has length {len(w)}, ground set has {ground.n}")
    k = _int(doc["k"], "k") if "k" in doc else None
    return InstanceFile(ground=ground, fn=fn, w=w, k=k)


def load_instance(path) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return parse_instance(doc)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to parse") from None
