"""Independent certificate checker for the benchmark.

Works on plain value tables from ``gen.table`` and shares no code with
polybase.  Every check returns a list of failure codes; an empty list
means the output is accepted.  ``self_test`` feeds the checker corrupted
certificates and reports any it failed to reject.
"""

from __future__ import annotations


def subset_sums(x) -> list[int]:
    """sums[mask] = sum of x over mask, for all masks."""
    n = len(x)
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask & (mask - 1)] + x[low]
    return sums


def in_base(values: list[int], x) -> bool:
    """x(E) = f(E) and x(U) <= f(U) for every subset U."""
    sums = subset_sums(x)
    if sums[-1] != values[-1]:
        return False
    return all(s <= v for s, v in zip(sums, values))


def dim(values: list[int], n: int) -> int:
    """n minus the number of connected components of f.

    Separators U with f(U) + f(E - U) = f(E) form a Boolean algebra; the
    component of element i is the intersection of the separators that
    contain it.
    """
    full = (1 << n) - 1
    top = values[full]
    comp = [full] * n
    for mask in range(1, full):
        if values[mask] + values[full ^ mask] == top:
            for i in range(n):
                if mask >> i & 1:
                    comp[i] &= mask
    return n - len(set(comp))


def check_certificate(values: list[int], n: int, w, k: int, terms) -> list[str]:
    """Failure codes for terms = [(weight, point), ...] claimed to give w in k B_f."""
    fails = []
    if not terms:
        return ["empty"]
    if any(not isinstance(wt, int) or wt <= 0 for wt, _ in terms):
        fails.append("weight_sign")
    if sum(wt for wt, _ in terms) != k:
        fails.append("weight_sum")
    total = [0] * n
    for wt, point in terms:
        if len(point) != n:
            return fails + ["length"]
        for i, v in enumerate(point):
            total[i] += wt * v
    if tuple(total) != tuple(w):
        fails.append("target_sum")
    points = [tuple(p) for _, p in terms]
    if len(set(points)) != len(points):
        fails.append("duplicate")
    if not all(in_base(values, p) for p in points):
        fails.append("membership")
    if len(points) > dim(values, n) + 1:
        fails.append("cardinality")
    return fails


def check_split(values: list[int], n: int, x, k: int, points) -> list[str]:
    """Failure codes for a claimed list of exactly k points of B_f summing to x."""
    fails = []
    if len(points) != k:
        fails.append("count")
    if any(len(p) != n for p in points):
        return fails + ["length"]
    if tuple(sum(col) for col in zip(*points)) != tuple(x):
        fails.append("target_sum")
    if not all(in_base(values, p) for p in points):
        fails.append("membership")
    return fails


def self_test(values: list[int], n: int, w, k: int, terms) -> list[str]:
    """Corrupt one accepted certificate (needs >= 2 terms) four ways.

    Returns a message for each corruption the checker let through.  The
    fourth corruption, one term too many over dim + 1, is built on a
    fixed instance (uniform rank 2 on four elements, dim 3) where five
    distinct bases weighted 1 are otherwise a valid certificate.
    """
    missed = []

    def expect(code, label, *args):
        if code not in check_certificate(*args):
            missed.append(f"checker accepted a certificate with {label}")

    if check_certificate(values, n, w, k, terms):
        missed.append("checker rejected the uncorrupted certificate")
    wt0, p0 = terms[0]
    big = max(abs(v) for v in values) + max(abs(v) for v in p0) + 1
    moved = (p0[0] + big, p0[1] - big) + tuple(p0[2:])
    expect("membership", "a point moved off B_f", values, n, w, k, [(wt0, moved)] + terms[1:])
    expect("weight_sum", "a term dropped", values, n, w, k, terms[1:])
    expect("weight_sum", "a changed weight", values, n, w, k, [(wt0 + 1, p0)] + terms[1:])

    u24 = [min(bin(m).count("1"), 2) for m in range(16)]
    bases = [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    target = tuple(sum(col) for col in zip(*bases))
    if check_certificate(u24, 4, tuple(sum(col) for col in zip(*bases[:4])), 4, [(1, b) for b in bases[:4]]):
        missed.append("checker rejected dim + 1 distinct bases")
    if check_certificate(u24, 4, target, 5, [(1, b) for b in bases]) != ["cardinality"]:
        missed.append("checker accepted one term too many over dim + 1")
    return missed
