"""Shared instance builders for the test suite.

Everything is seeded; the same call sequence always yields the same
corpus, which keeps golden expectations and determinism checks honest.
"""

from __future__ import annotations

import random

from polybase import (
    GraphicRank,
    GroundSet,
    PartitionRank,
    SubmodularFn,
    TableFn,
    UniformRank,
    greedy_vertex,
    materialize,
)

NAMES = "abcdefghijkl"


def ground(n: int) -> GroundSet:
    return GroundSet(tuple(NAMES[:n]))


# ---------------------------------------------------------------------------
# named tiny instances
# ---------------------------------------------------------------------------

def u12():
    return UniformRank(ground(2), 1)


def u23():
    return UniformRank(ground(3), 2)


def u24():
    return UniformRank(ground(4), 2)


def k3():
    return GraphicRank(ground(3), 3, [(0, 1), (1, 2), (2, 0)])


def part11():
    return PartitionRank(ground(4), (0b0011, 0b1100), (1, 1))


def tiny_instances() -> list[tuple[str, SubmodularFn]]:
    """Small functions covering every family and wrapper, for identities."""
    g3 = ground(3)
    items: list[tuple[str, SubmodularFn]] = [
        ("u12", u12()),
        ("u23", u23()),
        ("u24", u24()),
        ("u14", UniformRank(ground(4), 1)),
        ("k3", k3()),
        ("path3", GraphicRank(g3, 4, [(0, 1), (1, 2), (2, 3)])),
        ("part11", part11()),
        ("part21", PartitionRank(g3, (0b011, 0b100), (2, 1))),
        ("single", UniformRank(ground(1), 1)),
        ("dual_u23", u23().dual()),
        ("shift_k3", k3().shift((-2, 0, 3))),
        ("scale2_u12", u12().scale(2)),
        ("reduce_u23", u23().reduce((1, 1, 0))),
        ("reduce_at_u23", u23().reduce_at("a", 0)),
    ]
    rng = random.Random(2024)
    for i in range(4):
        n = rng.randint(2, 4)
        items.append((f"table{i}", random_table(ground(n), rng)))
    return items


def attaining_tiny() -> list[tuple[str, SubmodularFn]]:
    """Instances whose exhaustive rank bound reaches dim + 1 by k = 4.

    Selected by running the oracle itself; instances needing larger
    multiplicity (e.g. full-dimensional n = 5) are excluded because a
    decomposition at multiplicity k has at most k distinct terms.
    """
    g2, g3, g4 = ground(2), ground(3), ground(4)
    return [
        ("single", UniformRank(ground(1), 1)),
        ("u12", UniformRank(g2, 1)),
        ("u22", UniformRank(g2, 2)),
        ("u13", UniformRank(g3, 1)),
        ("u23", UniformRank(g3, 2)),
        ("u14", UniformRank(g4, 1)),
        ("u34", UniformRank(g4, 3)),
        ("k3", k3()),
        ("part11", part11()),
        ("scale2_u12", UniformRank(g2, 1).scale(2)),
        ("shift_u13", UniformRank(g3, 1).shift((2, -1, 3))),
        ("dual_u23", UniformRank(g3, 2).dual()),
        ("tree_path3", GraphicRank(g3, 4, [(0, 1), (1, 2), (2, 3)])),
    ]


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------

def coverage_table(g: GroundSet, rng: random.Random) -> TableFn:
    """Weighted coverage function: monotone, integer, submodular."""
    n = g.n
    items = rng.randint(1, 2 * n)
    weights = [rng.randint(1, 3) for _ in range(items)]
    covers = [rng.sample(range(items), rng.randint(0, items)) for _ in range(n)]
    vals = []
    for mask in g.subsets():
        seen: set[int] = set()
        for i in range(n):
            if mask >> i & 1:
                seen.update(covers[i])
        vals.append(sum(weights[j] for j in seen))
    return TableFn(g, vals)


def cut_table(g: GroundSet, rng: random.Random) -> TableFn:
    """Graph cut function: submodular, symmetric, zero on E."""
    n = g.n
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
    ]
    vals = []
    for mask in g.subsets():
        vals.append(
            sum(1 for i, j in edges if (mask >> i & 1) != (mask >> j & 1))
        )
    return TableFn(g, vals)


def random_table(g: GroundSet, rng: random.Random) -> TableFn:
    """A random explicit submodular table, possibly shifted negative."""
    kind = rng.randrange(4)
    if kind == 0:
        f: SubmodularFn = coverage_table(g, rng)
    elif kind == 1:
        f = cut_table(g, rng)
    elif kind == 2:
        base = coverage_table(g, rng)
        cap = rng.randint(1, max(1, base(g.full_mask)))
        f = TableFn(g, [min(base(m), cap) for m in g.subsets()])
    else:
        base = coverage_table(g, rng)
        f = base.shift(tuple(rng.randint(-4, 4) for _ in range(g.n)))
    return materialize(f)


def random_partition(g: GroundSet, rng: random.Random) -> PartitionRank:
    positions = list(range(g.n))
    rng.shuffle(positions)
    blocks = []
    while positions:
        size = rng.randint(1, len(positions))
        blocks.append(sum(1 << i for i in positions[:size]))
        positions = positions[size:]
    caps = [rng.randint(0, 3) for _ in blocks]
    return PartitionRank(g, blocks, caps)


def random_graphic(g: GroundSet, rng: random.Random) -> GraphicRank:
    m = rng.randint(2, max(2, g.n))
    edges = [(rng.randrange(m), rng.randrange(m)) for _ in range(g.n)]
    return GraphicRank(g, m, edges)


def random_instance(n: int, rng: random.Random) -> tuple[str, SubmodularFn]:
    g = ground(n)
    kind = rng.randrange(4)
    if kind == 0:
        return "uniform", UniformRank(g, rng.randint(0, n))
    if kind == 1:
        return "partition", random_partition(g, rng)
    if kind == 2:
        return "graphic", random_graphic(g, rng)
    return "table", random_table(g, rng)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

ACCEPTANCE_SIZES = {2: 30, 3: 35, 4: 35, 5: 30, 6: 28, 7: 22, 8: 20}


def acceptance_corpus() -> list[tuple[str, SubmodularFn]]:
    """200 seeded instances with n from 2 through 8, mixed families."""
    rng = random.Random(20240901)
    out = []
    for n, count in ACCEPTANCE_SIZES.items():
        for i in range(count):
            kind, f = random_instance(n, rng)
            out.append((f"{kind}-n{n}-{i}", f))
    return out


def flat_corpus(minimum: int = 50) -> list[tuple[str, SubmodularFn]]:
    """Instances whose base polytope has dim < n - 1 (direct-sum shaped)."""
    from polybase import dimension

    rng = random.Random(555)
    out = []
    attempt = 0
    while len(out) < minimum:
        attempt += 1
        n = rng.randint(2, 6)
        g = ground(n)
        kind = rng.randrange(3)
        if kind == 0:
            f: SubmodularFn = random_partition(g, rng)
        elif kind == 1:
            # disconnected multigraph: edges confined to vertex pairs
            m = max(4, n)
            edges = []
            for _ in range(n):
                side = rng.randrange(2)
                lo, hi = (0, m // 2) if side == 0 else (m // 2, m)
                edges.append((rng.randrange(lo, hi), rng.randrange(lo, hi)))
            f = GraphicRank(g, m, edges)
        else:
            # explicit direct sum of two small tables
            if n < 2:
                continue
            s = rng.randint(1, n - 1)
            left = random_table(ground(s), rng)
            right = random_table(ground(n - s), rng)
            vals = []
            low = (1 << s) - 1
            for mask in g.subsets():
                vals.append(left(mask & low) + right(mask >> s))
            f = TableFn(g, vals)
        if dimension(f) < n - 1:
            out.append((f"flat-{attempt}", f))
    return out


def sample_target(f: SubmodularFn, k: int, rng: random.Random) -> tuple[int, ...]:
    """w as the sum of k greedy vertices under random orders."""
    n = f.ground.n
    w = tuple(0 for _ in range(n))
    for _ in range(k):
        order = list(range(n))
        rng.shuffle(order)
        v = greedy_vertex(f, order)
        w = tuple(a + b for a, b in zip(w, v))
    return w


def block_fns(f: SubmodularFn, fs) -> list[SubmodularFn]:
    """The function of each block of the face structure fs of f."""
    return [f.block_restrict(prev, block) for prev, block in zip(fs.chain, fs.blocks)]
