"""Independent reference implementations used only as test oracles.

Everything here is set-based and deliberately naive so that it shares no
code path with the bitmask implementations under test.
"""
from __future__ import annotations

import itertools

from zfpoly import Graph


def naive_closure(g: Graph, colored: set[int]) -> set[int]:
    colored = set(colored)
    changed = True
    while changed:
        changed = False
        for u in list(colored):
            uncolored = [v for v in range(g.n) if g.has_edge(u, v) and v not in colored]
            if len(uncolored) == 1:
                colored.add(uncolored[0])
                changed = True
    return colored


def naive_is_zfs(g: Graph, colored: set[int]) -> bool:
    return naive_closure(g, colored) == set(range(g.n))


def naive_zf_coeffs(g: Graph) -> tuple[int, ...]:
    coeffs = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if naive_is_zfs(g, set(combo)):
                coeffs[size] += 1
    if g.n == 0:
        coeffs[0] = 1
    return tuple(coeffs)


def naive_forts(g: Graph) -> set[frozenset[int]]:
    out = set()
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            f = set(combo)
            if all(
                len([w for w in f if g.has_edge(v, w)]) != 1
                for v in range(g.n)
                if v not in f
            ):
                out.add(frozenset(f))
    return out


def naive_min_cover_size(g: Graph) -> int:
    forts = naive_forts(g)
    if not forts:
        return 0
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            if all(s & f for f in forts):
                return size
    raise AssertionError("the full vertex set always hits every fort")


def naive_has_ham_path(g: Graph) -> bool:
    if g.n <= 1:
        return True
    for perm in itertools.permutations(range(g.n)):
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(g.n - 1)):
            return True
    return False


def naive_consecutive_count(n: int, k: int, m: int) -> int:
    """Subsets of the n-cycle of size k containing m circularly consecutive
    vertices, by explicit run inspection."""
    if m > n:
        return 0
    count = 0
    for combo in itertools.combinations(range(n), k):
        chosen = set(combo)
        if any(all((start + off) % n in chosen for off in range(m)) for start in range(n)):
            count += 1
    return count


def naive_consecutive_counts(n: int, m: int) -> dict[int, int]:
    """naive_consecutive_count for every subset size k = 0..n."""
    return {k: naive_consecutive_count(n, k, m) for k in range(n + 1)}
