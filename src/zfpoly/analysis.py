"""Structural checks on zero forcing polynomials.

Extremal coefficient formulas, the all-minimum-sets characterization,
coefficient monotonicity, recognizability of families, and the equivalence
class of graphs sharing a cycle's polynomial.
"""
from __future__ import annotations

import itertools
from math import comb
from typing import Sequence

from .closed_forms import poly_complete, poly_cycle, poly_path, poly_threshold
from .graphs import (
    LABELED_ENUM_MAX,
    Graph,
    _connected_components,
    _edge_mask_adj,
    edge_pair_order,
    is_isomorphic,
)
from .polynomial import ZfPolynomial, _batch_bits, _batch_tally, _chunk_planes, zf_polynomial


def _structure(adj: Sequence[int], n: int) -> tuple[int, int, int, int]:
    """One graph's row of _batch_structure: (the mask of its non-isolated
    vertices, non-twin pairs of them, is a path, is connected), the flags 0
    or 1.  A path is connected with degrees at most 2 and some vertex of
    degree at most 1."""
    active = third = 0
    for u, au in enumerate(adj):
        if au:
            active |= 1 << u
            for v in range(u + 1, n):
                av = adj[v]
                if av and au & ~(1 << v) != av & ~(1 << u):
                    third += 1
    connected = len(_connected_components(adj, n)) == 1
    path = connected and max(map(int.bit_count, adj)) <= 2 and min(map(int.bit_count, adj)) <= 1
    return active, third, int(path), int(connected)


def _extremal(n: int, structure: Sequence[int]) -> tuple[int, int, int, int]:
    """The coefficients of sizes n, n-1, n-2 and 1 of the graph of a _structure
    row.  Size n: only the full set.  Size n-1: one non-isolated vertex may be
    dropped.  Size n-2: a pair may be dropped iff both are non-isolated and
    their punctured neighborhoods differ.  Size 1: the lone vertex forces at
    n = 1; otherwise a path has its two ends and every other graph none."""
    active, third, is_path, _ = structure
    return 1, active.bit_count(), third, 1 if n == 1 else 2 * is_path


def is_path_graph(g: Graph) -> bool:
    """Structural path test: connected, max degree <= 2, some vertex of degree <= 1."""
    return bool(_structure(g.adj, g.n)[2])


def _batch_structure(pairs: Sequence[tuple[int, int]], n: int, base: int, b: int) -> list[tuple[int, int, int, int]]:
    """Per graph of the batch of edge masks base + g, g < 2^b, as in
    polynomial._batch_edges: (the mask of its non-isolated vertices,
    non-twin pairs of them, is a path, is connected), the flags 0 or 1, as
    _structure gives them for one graph.  Graph g is byte g of each counter
    and bit 0 of a byte its indicator, so the counts are sums of indicators
    and the masks sums of indicators shifted to their vertex's bit, with no
    carry between graphs (n <= 8)."""
    ones, planes = _chunk_planes(b + 3)
    low = ones & ~(planes[0] | planes[1] | planes[2])  # bit 0 of every byte
    edge = [low if base >> i & 1 else 0 for i in range(len(pairs))]
    edge[:b] = [plane & low for plane in planes[3:]]
    links = [(e, u, v) for e, (u, v) in zip(edge, pairs) if e]
    nbr = [[0] * n for _ in range(n)]  # nbr[u][v]: the graphs with edge uv
    for e, u, v in links:
        nbr[u][v] = nbr[v][u] = e
    active = []  # per v: the graphs where v has a neighbor
    mask = many = ends = 0  # many: a vertex of degree >= 3; ends: one of degree <= 1
    for v, row in enumerate(nbr):
        one = two = three = 0
        for e in row:
            three |= two & e
            two |= one & e
            one |= e
        active.append(one)
        mask |= one << v
        many |= three
        ends |= low & ~two
    third = 0
    for u, v in itertools.combinations(range(n), 2):
        differ = 0
        for w in range(n):
            if w != u and w != v:
                differ |= nbr[u][w] ^ nbr[v][w]
        third += active[u] & active[v] & differ
    reach = [low] + [0] * (n - 1)  # the graphs where v is reachable from vertex 0
    for _ in range(n - 1):
        for e, u, v in links:
            reach[v] |= reach[u] & e
            reach[u] |= reach[v] & e
    connected = low
    for r in reach:
        connected &= r
    path = connected & ends & ~many  # connected, degrees at most 2, not a cycle
    return list(zip(*(c.to_bytes(1 << b, "little") for c in (mask, third, path, connected))))


def extremal_coefficients(g: Graph) -> tuple[int, int, int, int]:
    """The four characterized coefficients (sizes n, n-1, n-2, 1), computed
    from graph structure rather than by enumeration (_extremal)."""
    if g.n < 1:
        raise ValueError("requires a nonempty graph")
    return _extremal(g.n, _structure(g.adj, g.n))


def all_min_sets_forcing(g: Graph) -> bool:
    """True iff every set of size Z(G) is a zero forcing set."""
    if g.n < 1:
        raise ValueError("requires a nonempty graph")
    poly = zf_polynomial(g)
    return _min_sets_force(poly.coeffs, g.n, poly.zero_forcing_number())


def _min_sets_force(coeffs: Sequence[int], n: int, z: int) -> bool:
    return coeffs[z] == comb(n, z)  # every set of size z = Z(G) forces


def _hall_ok(coeffs: Sequence[int], n: int) -> bool:
    return all(coeffs[i] <= coeffs[i + 1] for i in range(1, (n - 1) // 2 + 1))


def hall_monotonicity_holds(g: Graph) -> bool:
    """Coefficient i never exceeds coefficient i+1 for 1 <= i < n/2."""
    poly = zf_polynomial(g)
    return _hall_ok(poly.coeffs, g.n)


def path_bound_holds(g: Graph) -> bool:
    """Every coefficient is at most the path's coefficient of the same size."""
    if g.n < 1:
        raise ValueError("requires a nonempty graph")
    return not _exceeds_path(zf_polynomial(g).coeffs, poly_path(g.n).coeffs)


def _exceeds_path(coeffs: Sequence[int], path_coeffs: Sequence[int]) -> bool:
    return any(c > p for c, p in zip(coeffs, path_coeffs))  # some coefficient above the path's of its size


def recognizes_path(p: ZfPolynomial) -> bool:
    """True iff p is the polynomial of the path on p.n vertices."""
    return p.n >= 1 and p == poly_path(p.n)


def recognizes_complete(p: ZfPolynomial) -> bool:
    """True iff p is the polynomial of the complete graph on p.n vertices."""
    return p.n >= 1 and p == poly_complete(p.n)


# ---------------------------------------------------------------------------
# Graphs sharing a cycle's polynomial


def cycle_polynomial_class(n: int) -> list[Graph]:
    """Isomorphism-class representatives of all n-vertex graphs whose
    polynomial equals the n-cycle's, the first of each class in edge-mask
    order, read off the batched flag tables of every labeled graph."""
    if not 3 <= n <= LABELED_ENUM_MAX:
        raise ValueError(f"cycle polynomial class sweep supports 3 <= n <= {LABELED_ENUM_MAX}")
    pairs = edge_pair_order(n)
    target = poly_cycle(n).coeffs
    b = _batch_bits(n)
    reps: list[Graph] = []
    for base in range(0, 1 << len(pairs), 1 << b):
        for g, coeffs in enumerate(_batch_tally(pairs, n, base, b)[2]):
            if coeffs == target:
                h = Graph(n, tuple(_edge_mask_adj(pairs, n, base + g)))
                if not any(is_isomorphic(h, rep) for rep in reps):  # rejects on degrees first
                    reps.append(h)
    return reps


def same_poly_threshold_family(k: int) -> list[tuple[str, ZfPolynomial]]:
    """Threshold strings with 1-blocks of sizes 2..k (every order) separated by
    0-blocks of size 2, with their polynomials; all polynomials agree."""
    if not 3 <= k <= 5:
        raise ValueError("threshold family sweep supports 3 <= k <= 5")
    out = []
    for perm in itertools.permutations(range(2, k + 1)):
        b = "00".join("1" * s for s in perm)
        out.append((b, poly_threshold(b)))
    return out
