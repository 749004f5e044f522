"""JSON instance files: the one reader and writer of function nodes.

An instance document is ``{"ground": [names...], "f": <node>}`` plus an
optional target ``"w"`` (integer array) and multiplicity ``"k"``.  Nodes
are explicit tables, the three matroid rank families, or wrappers (dual,
shift, reduce, reduce_at, scale, block_restrict) around an inner node; a
block_restrict node lives on its ``block``, which like ``a_prev`` names
elements of the inner node's ground.  Table keys are comma-joined
alphabetically sorted element names; the empty-set key may be omitted
(it is zero), every other subset key is required.  ``parse_fn`` reads a
node and ``node_dict`` writes one, which ``parse_fn`` reads back as the
same function; ``table_keys`` is the one spelling of table keys, and
``trace_dict(f, trace)`` writes the ``--trace`` tree of a decomposition of f.
"""

from __future__ import annotations

import json
from os import PathLike
from operator import itemgetter

from .core import (
    DEFAULT_GROUND_LIMIT,
    BlockRestrictFn,
    DualFn,
    Frozen,
    GraphicRank,
    GroundSet,
    PartitionRank,
    ReduceAtFn,
    ReduceFn,
    ScaleFn,
    ShiftFn,
    SubmodularFn,
    TableFn,
    UniformRank,
    _check_int,
    _positions,
    subset_sums,
)
from .errors import ParseError, UsageError


class InstanceFile(Frozen):
    """A parsed instance: its function and the optional target w and multiplicity k."""

    __slots__ = ("ground", "fn", "w", "k")


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


def _names(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{what} must be an array of element names")
    return value


def parse_fn(ground: GroundSet, node) -> SubmodularFn:
    """The function of a decoded node on ``ground``; ParseError if it is malformed or
    nests too deeply to parse."""
    try:
        return _parse_node(ground, node)
    except RecursionError:
        raise ParseError("function node nests too deeply to parse") from None


def _parse_node(ground: GroundSet, node) -> SubmodularFn:
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
            return _parse_node(ground, _need(node, "inner", "dual")).dual()
        if kind == "shift":
            a = _int_list(_need(node, "a", "shift"), "shift vector")
            return _parse_node(ground, _need(node, "inner", "shift")).shift(a)
        if kind == "reduce":
            a = _int_list(_need(node, "a", "reduce"), "reduction vector")
            return _parse_node(ground, _need(node, "inner", "reduce")).reduce(a)
        if kind == "reduce_at":
            e = _need(node, "e", "reduce_at")
            c = _int(_need(node, "c", "reduce_at"), "cap")
            return _parse_node(ground, _need(node, "inner", "reduce_at")).reduce_at(e, c)
        if kind == "scale":
            r = _int(_need(node, "r", "scale"), "scale factor")
            return _parse_node(ground, _need(node, "inner", "scale")).scale(r)
        if kind == "block_restrict":
            inner = _parse_node(ground, _need(node, "inner", "block_restrict"))
            a_prev, block = (
                inner.ground.mask_of(_names(_need(node, key, "block_restrict"), key))
                for key in ("a_prev", "block")
            )
            return inner.block_restrict(a_prev, block)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown function node type {kind!r}")


def _parse_table(ground: GroundSet, values) -> TableFn:
    if not isinstance(values, dict):
        raise ParseError("table values must be an object")
    canonical = {key: mask for mask, key in enumerate(table_keys(ground))}
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


def table_keys(ground: GroundSet) -> list[str]:
    """keys[mask]: the sorted names of mask joined by commas, built by doubling."""
    names = sorted(ground.elements)
    keys = [""]
    for name in names:
        keys += [name] + [f"{key},{name}" for key in keys[1:]]
    rank = {name: r for r, name in enumerate(names)}
    return list(itemgetter(*subset_sums([1 << rank[e] for e in ground.elements]))(keys))


def node_dict(fn: SubmodularFn) -> dict:
    """The node of fn that ``parse_fn`` reads back as fn, on fn's ground.

    A wrapper writes its inner node last, under ``"inner"``.  Only the ten
    node classes of ``core`` have a node type; any other class, a subclass
    of one included, raises TypeError.
    """
    cls = type(fn)
    if cls is TableFn:
        return {"type": "table", "values": dict(zip(table_keys(fn.ground), fn.values))}
    if cls is UniformRank:
        return {"type": "uniform", "rank": fn.rank}
    if cls is PartitionRank:
        blocks = [list(fn.ground.names_of(b)) for b in fn.blocks]
        return {"type": "partition", "blocks": blocks, "caps": list(fn.caps)}
    if cls is GraphicRank:
        return {"type": "graphic", "vertices": fn.vertices, "edges": [list(e) for e in fn.edges]}
    if cls is DualFn:
        kind, params = "dual", {}
    elif cls is ShiftFn:
        kind, params = "shift", {"a": list(fn.a)}
    elif cls is ReduceFn:
        kind, params = "reduce", {"a": list(fn.a)}
    elif cls is ReduceAtFn:
        kind, params = "reduce_at", {"e": fn.element, "c": fn.cap}
    elif cls is ScaleFn:
        kind, params = "scale", {"r": fn.r}
    elif cls is BlockRestrictFn:
        parent = fn.inner.ground
        kind, params = "block_restrict", {"a_prev": list(parent.names_of(fn.a_prev)),
                                          "block": list(parent.names_of(fn.block))}
    else:
        raise TypeError(f"{cls.__name__} has no instance node type")
    return _wrap(kind, node_dict(fn.inner), **params)


def _wrap(kind: str, inner: dict, **params) -> dict:
    """A wrapper node: its type, then its parameters, then its inner node."""
    return {"type": kind, **params, "inner": inner}


def trace_dict(f: SubmodularFn, trace) -> dict:
    """The ``--trace`` tree of ``trace``, a decomposition of f, children included.

    Nodes hold no function and, below the root, no names: each node's function
    is wrappers around f's one node, and its names the root's at its positions.
    A ``face_drop`` prints f capped at q, a split its parts x1 and x2 and the
    vertex step's operands r (f capped at q+1) and w - (k-r) B_{f capped at q},
    a block node its tight chain.  ``dim`` is left out.
    """
    if f.ground.elements != trace.ground:
        raise UsageError(f"trace ground {trace.ground!r} is not f's {f.ground.elements!r}")
    return _trace_node(trace, node_dict(f), trace.ground)


def _trace_node(trace, fn: dict, names) -> dict:
    """The printed ``trace`` of node ``fn``'s function on ``names`` (a split child's names too)."""
    k, chain, fns, grounds = trace.k, trace.chain, (), (names, names)
    out = {"case": trace.case, "ground": list(names), "w": list(trace.w), "k": k}
    e, (q, r) = names[0], divmod(trace.w[0], k)
    if trace.case == "face_drop":
        out.update(e=e, q=q, fn_reduced=(fn := _wrap("reduce_at", fn, e=e, c=q)))
    if trace.case == "split":
        fns = upper, lower = [_wrap("reduce_at", fn, e=e, c=c) for c in (q + 1, q)]
        right = _wrap("shift", _wrap("scale", _wrap("dual", lower), r=k - r), a=list(trace.w))
        x1, x2 = (list(child.w) for child in trace.children)
        out.update(e=e, q=q, r=r, fn_left=_wrap("scale", upper, r=r), fn_right=right, x1=x1, x2=x2)
    elif trace.case != "leaf":
        out["chain"] = [[names[i] for i in _positions(m)] for m in chain]
        grounds = [[names[i] for i in _positions(a ^ b)] for a, b in zip(chain, chain[1:])]
        fns = [_wrap("block_restrict", fn, a_prev=prev, block=block)
               for prev, block in zip(out["chain"], grounds)]
    if trace.children:
        out["children"] = [_trace_node(*a) for a in zip(trace.children, fns, grounds, strict=True)]
    return out


def parse_instance(doc, limit: int = DEFAULT_GROUND_LIMIT) -> InstanceFile:
    """The instance in a decoded document; its ground may hold at most ``limit`` elements."""
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    names = _names(_need(doc, "ground", "instance"), "ground")
    _check_int(limit, "ground set size limit must be an integer")
    try:
        ground = GroundSet(names, limit)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc
    fn = parse_fn(ground, _need(doc, "f", "instance"))
    ground = fn.ground
    w = None
    if "w" in doc:
        w = tuple(_int_list(doc["w"], "w"))
        if len(w) != ground.n:
            raise ParseError(f"w has length {len(w)}, ground set has {ground.n}")
    k = _int(doc["k"], "k") if "k" in doc else None
    return InstanceFile(ground, fn, w, k)


def load_instance(path, limit: int = DEFAULT_GROUND_LIMIT) -> InstanceFile:
    if not isinstance(path, (str, PathLike)):
        raise UsageError(f"instance path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also not UTF-8, or an integer past the digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to parse") from None
    return parse_instance(doc, limit)
