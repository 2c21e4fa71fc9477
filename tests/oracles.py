"""Independent reference implementations used only as test oracles.

Everything here but duality_zf_bits and threshold_string_records is
set-based and deliberately naive so that it shares no code path with the
bitmask implementations under test.  duality_zf_bits is the exact flat
oracle of the flag table at orders where a set-based one is too slow: its
own planes over one 2^n-bit int, and none of the flag table's code.
threshold_string_records is the closed-forms suite's per-string check, the
oracle of its threshold batches: it reads one graph's flag table and the
closed form through sweeps and the per-string characterization through
closed_forms, so that a planted fault reaches it.
"""
from __future__ import annotations

import itertools

from zfpoly import Graph, closed_forms, sweeps, threshold_from_string


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


def duality_zf_bits(g: Graph) -> tuple[int, list[int]]:
    """(zf, coeffs) of g from the fort definition alone, for n up to the
    enumeration cap: bit m of the 2^n-bit int zf is set iff m forces, and
    coeffs[j] counts those bits at masks of j vertices.  S forces iff it
    lies in no proper closed set V - F, F a fort, so the masks that do not
    force are the forts, reversed (F to V - F) and closed downward."""
    n, size = g.n, 1 << g.n
    ones = (1 << size) - 1
    planes = []  # bit m of planes[u] is set iff m holds u
    for u in range(n):
        plane, width = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
        while width < size:
            plane |= plane << width
            width *= 2
        planes.append(plane)
    forts = ones ^ 1  # the nonempty masks, less those that a vertex outside sees once
    for v in range(n):
        one = two = 0
        for u in range(n):
            if g.has_edge(u, v):
                two |= one & planes[u]
                one |= planes[u]
        forts &= ~((one ^ two) & ~planes[v])
    closed = int(format(forts, f"0{size}b")[::-1], 2)  # the digits read backwards: F to V - F
    for plane in planes:
        closed |= (closed & plane) >> (plane & -plane).bit_length() - 1  # drop u from each mask that holds it
    zf = ones ^ closed
    levels = [ones]  # bit m of levels[j] is set iff m has j vertices, among the vertices seen so far
    for plane in planes:
        rest = ones ^ plane
        levels = [a & rest | b & plane for a, b in zip(levels + [0], [0] + levels)]
    return zf, [(zf & level).bit_count() for level in levels]


def threshold_string_records(b: str) -> list[tuple[str, str]]:
    """The (check, detail) pairs of one threshold string: the closed-form
    polynomial and the characterization table, both against the flag table
    of the string's own graph."""
    bad = []
    g = threshold_from_string(b)
    zf, coeffs = sweeps._closure_tally(g.adj, g.n)
    zf = sweeps._joined(zf, g.n)
    if tuple(coeffs) != sweeps.poly_threshold(b).coeffs:
        bad.append(("threshold-poly", "closed form differs from enumeration"))
    diff = closed_forms._threshold_zfs_bits(b) ^ zf
    if diff:
        mask = (diff & -diff).bit_length() - 1
        bad.append(("threshold-zfs-check", f"characterization wrong on mask {mask:#x}"))
    return bad
