"""Seeded instance generator for the benchmark.

Shares no code with polybase.  An instance is a plain dict holding the
family parameters; ``table`` computes its full value table with the
benchmark's own formulas (union-find for graphic ranks, capped counts for
uniform and partition ranks, coverage and cut sums for explicit tables),
so the checker never evaluates a polybase function object.
"""

from __future__ import annotations

import random

NAMES = "abcdefghijkl"
RANK_FAMILIES = ("uniform", "partition", "graphic")
TABLE_FAMILIES = ("coverage", "cut", "capped", "shifted")


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def _graphic_rank(vertices: int, edges, mask: int) -> int:
    parent = list(range(vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    rank = 0
    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
    return rank


def _coverage(n: int, rng: random.Random) -> list[int]:
    items = rng.randint(1, 2 * n)
    weights = [rng.randint(1, 3) for _ in range(items)]
    covers = [rng.sample(range(items), rng.randint(0, items)) for _ in range(n)]
    vals = []
    for mask in range(1 << n):
        seen = set()
        for i in range(n):
            if mask >> i & 1:
                seen.update(covers[i])
        vals.append(sum(weights[j] for j in seen))
    return vals


def make_instance(family: str, n: int, rng: random.Random) -> dict:
    """Parameters of one instance; ``table`` turns them into values."""
    inst = {"family": family, "n": n}
    if family == "uniform":
        inst["rank"] = rng.randint(0, n)
    elif family == "partition":
        positions = list(range(n))
        rng.shuffle(positions)
        blocks = []
        while positions:
            size = rng.randint(1, len(positions))
            blocks.append(sorted(positions[:size]))
            positions = positions[size:]
        inst["blocks"] = blocks
        inst["caps"] = [rng.randint(0, 3) for _ in blocks]
    elif family == "graphic":
        m = rng.randint(2, max(2, n))
        inst["vertices"] = m
        inst["edges"] = [[rng.randrange(m), rng.randrange(m)] for _ in range(n)]
    elif family == "coverage":
        inst["values"] = _coverage(n, rng)
    elif family == "cut":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        inst["values"] = [
            sum(1 for i, j in edges if (mask >> i & 1) != (mask >> j & 1))
            for mask in range(1 << n)
        ]
    elif family == "capped":
        base = _coverage(n, rng)
        cap = rng.randint(1, max(1, base[-1]))
        inst["values"] = [min(v, cap) for v in base]
    elif family == "shifted":
        base = _coverage(n, rng)
        shift = [rng.randint(-4, 4) for _ in range(n)]
        inst["values"] = [
            v + sum(shift[i] for i in range(n) if mask >> i & 1)
            for mask, v in enumerate(base)
        ]
    else:
        raise ValueError(f"unknown family {family!r}")
    return inst


def table(inst: dict) -> list[int]:
    """All 2^n values of the instance, indexed by subset bitmask."""
    n = inst["n"]
    family = inst["family"]
    if family == "uniform":
        return [min(popcount(m), inst["rank"]) for m in range(1 << n)]
    if family == "partition":
        masks = [sum(1 << i for i in block) for block in inst["blocks"]]
        return [
            sum(min(popcount(m & b), c) for b, c in zip(masks, inst["caps"]))
            for m in range(1 << n)
        ]
    if family == "graphic":
        return [_graphic_rank(inst["vertices"], inst["edges"], m) for m in range(1 << n)]
    return list(inst["values"])


def greedy(values: list[int], order) -> tuple[int, ...]:
    """Greedy vertex of B_f for a visiting order of element positions."""
    x = [0] * len(order)
    mask = 0
    for i in order:
        grown = mask | 1 << i
        x[i] = values[grown] - values[mask]
        mask = grown
    return tuple(x)


def random_vertex(values: list[int], n: int, rng: random.Random) -> tuple[int, ...]:
    order = list(range(n))
    rng.shuffle(order)
    return greedy(values, order)


def sum_of_vertices(values: list[int], n: int, k: int, rng: random.Random):
    """w as the sum of k greedy vertices under random orders."""
    w = [0] * n
    for _ in range(k):
        for i, v in enumerate(random_vertex(values, n, rng)):
            w[i] += v
    return tuple(w)


def document(inst: dict, w=None, k=None) -> dict:
    """The instance as a polybase JSON instance document."""
    n = inst["n"]
    names = NAMES[:n]
    family = inst["family"]
    if family == "uniform":
        node = {"type": "uniform", "rank": inst["rank"]}
    elif family == "partition":
        node = {
            "type": "partition",
            "blocks": [[names[i] for i in block] for block in inst["blocks"]],
            "caps": list(inst["caps"]),
        }
    elif family == "graphic":
        node = {"type": "graphic", "vertices": inst["vertices"], "edges": inst["edges"]}
    else:
        values = {}
        for mask, v in enumerate(inst["values"]):
            values[",".join(sorted(names[i] for i in range(n) if mask >> i & 1))] = v
        node = {"type": "table", "values": values}
    doc = {"ground": list(names), "f": node}
    if w is not None:
        doc["w"] = list(w)
        doc["k"] = k
    return doc
