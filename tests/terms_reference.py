"""The per-node reader that ``polybase.decompose._terms`` replaced.

Kept as a differential test oracle.  Every trace node builds its own term
list: a split concatenates x1's terms and x2's, and a block node
interleaves its blocks' term lists by bisecting their prefix sums, then
places each block's coordinates through an inverse permutation of its
chain's positions.  It shares no code with the engine's one-walk reader
but ``_chain_positions``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from polybase.errors import InvariantViolation, UsageError
from polybase.polytope import _chain_positions


def interleave(parts, k: int) -> list[tuple[int, tuple]]:
    """Combine per-block term lists along shared weight breakpoints.

    Each part's cumulative weights cut [0, k] into intervals; on each
    interval of the common refinement every part has one active point.
    Returns (interval length, tuple of active points per part).
    """
    prefix_lists = []
    breakpoints = {0, k}
    for terms in parts:
        acc = 0
        prefixes = [0]
        for wt, _ in terms:
            acc += wt
            prefixes.append(acc)
        if acc != k:
            raise UsageError(f"part weights sum to {acc}, expected multiplicity {k}")
        prefix_lists.append(prefixes)
        breakpoints.update(prefixes)
    out = []
    bps = sorted(breakpoints)
    for lo, hi in zip(bps, bps[1:]):
        combo = tuple(
            parts[p][bisect_left(prefix_lists[p], hi) - 1][1]
            for p in range(len(parts))
        )
        out.append((hi - lo, combo))
    return out


def terms(node) -> list[tuple[int, tuple[int, ...]]]:
    """The weighted points of a trace node, at most ``dim`` + 1 of them, in
    strictly decreasing lex order."""
    if node.case == "leaf":
        out = [(node.k, (node.w[0] // node.k,))]
    elif node.case == "split":
        out = terms(node.children[0]) + terms(node.children[1])
    else:
        parts = [terms(child) for child in node.children]
        order = sum(_chain_positions(node.chain), ())
        place = itemgetter(*sorted(range(len(order)), key=order.__getitem__))  # n >= 2: a tuple
        out = [(wt, place(sum(combo, ()))) for wt, combo in interleave(parts, node.k)]
    if len(out) > node.dim + 1:
        raise InvariantViolation(f"{len(out)} distinct points exceed the bound dim + 1 = "
                                 f"{node.dim + 1}")
    return out
