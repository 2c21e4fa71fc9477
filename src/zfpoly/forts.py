"""Forts and the fort-cover formulation of the zero forcing number.

A fort is a nonempty vertex set F such that no vertex outside F has exactly
one neighbor in F.  A vertex of V - F can force iff it has exactly one
neighbor in F, so F is a fort iff V - F is a proper closed set, and

    S meets every fort iff S is a zero forcing set:

if S does not force, V minus its closure is a fort that S misses; if S
misses a fort F, S lies in the closed set V - F.  So the minimum fort
transversal has size Z(G), and each fort question is read off the flag
table: the forts from its closed bits (_fort_bits), the transversals from
its zero forcing bits and their size from its coefficients.  Two tables of
their own check that reading in the sweeps: the forts from the definition
alone, compared with _fort_bits in both directions, and those forts closed
upward, whose largest fort-free mask gives the cover size without the zero
forcing bits.  Each is one flat 2^n-bit int per graph, or one 2^(n+b)-bit
int for 2^b graphs; the per-graph definition is the batch one's oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .closed_forms import binom, poly_path
from .graphs import Graph, mask_of, vertices_of
from .polynomial import (_batch_edges, _block_counts, _block_levels, _chunk_constants, _chunk_planes, _flag_table,
                         _zero_forcing_number)


@dataclass(frozen=True)
class FortFamily:
    """All forts of a graph, sorted by (size, mask) and duplicate-free."""

    n: int
    forts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "forts": [vertices_of(f) for f in self.forts]}


def _is_fort(adj: Sequence[int], n: int, mask: int) -> bool:
    if not mask:
        return False
    outside = ((1 << n) - 1) & ~mask
    while outside:
        b = outside & -outside
        outside ^= b
        inside = adj[b.bit_length() - 1] & mask
        if inside and not (inside & (inside - 1)):
            return False
    return True


def is_fort(g: Graph, mask: int) -> bool:
    """True iff mask is nonempty and no outside vertex sees exactly one member."""
    if mask & ~g.vertex_mask:
        raise ValueError("fort candidate has vertices outside the graph")
    return _is_fort(g.adj, g.n, mask)


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _fort_bits(closed: int, n: int) -> int:
    """The forts as one 2^n-bit int: bit F is set iff V - F is a proper
    closed set.  Bit m of closed becomes bit V - m, a reversal of the whole
    table, and the empty mask, the complement of V, is cleared."""
    size = 1 << n
    raw = closed.to_bytes(max(1, size >> 3), "big").translate(_REVERSED_BYTE)
    return int.from_bytes(raw, "little") >> max(0, 8 - size) & ~1


def _fort_family(fort_bits: int, n: int) -> FortFamily:
    digits = format(fort_bits, "b")[::-1]  # digit f is bit f
    forts = []
    f = digits.find("1")
    while f >= 0:
        forts.append(f)
        f = digits.find("1", f + 1)
    forts.sort(key=int.bit_count)  # stable: ascending masks within a size
    return FortFamily(n, tuple(forts))


def enumerate_forts(g: Graph) -> FortFamily:
    """All forts, as the complements of the proper closed sets, at every
    order up to the enumeration cap."""
    return _fort_family(_fort_bits(_flag_table(g)[1], g.n), g.n)


# ---------------------------------------------------------------------------
# The fort table's two checks: the definition, and the forts closed upward


def _fort_definition_bits(adj: Sequence[int], n: int) -> int:
    """The forts as one 2^n-bit int, from the definition alone: bit F is set
    iff F is nonempty and no vertex outside F has exactly one neighbor in F.

    Independent of the flag table, whose closed bits _fort_bits reads: this
    works in F space over the planes of _chunk_planes(n), where plane u
    holds the masks that contain u.  For each v, "at least one" and "at
    least two" accumulators over the planes of v's neighbors give the masks
    that see exactly one of them, which rule F out when F misses v.
    """
    ones, planes = _chunk_planes(n)
    bad = 0  # the masks that some v outside them rules out
    for v in range(n):
        one = two = 0
        rem = adj[v]
        while rem:
            b = rem & -rem
            rem ^= b
            plane = planes[b.bit_length() - 1]
            two |= one & plane
            one |= plane
        bad |= (one ^ two) & ~planes[v]
    return (ones ^ bad) & ~1  # the empty mask is no fort


def _batch_fort_definition(ones: int, planes: Sequence[int], nbrs: Sequence[Sequence[tuple[int, int]]]) -> int:
    """_fort_definition_bits of each graph of a batch at once: bit g << n | F
    over the lanes of polynomial._batch_edges is set iff F is a fort of g."""
    bad = nonempty = 0
    for v, edges in enumerate(nbrs):
        one = two = 0
        for w, e in edges:
            seen = e & planes[w]
            two |= one & seen
            one |= seen
        bad |= (one ^ two) & ~planes[v]
        nonempty |= planes[v]
    return (ones ^ bad) & nonempty


def _batch_fort_tables(closed: int, pairs: Sequence[tuple[int, int]], n: int, base: int, b: int) -> tuple[int, int]:
    """The forts of a batch's joined closed bits (polynomial._batch_tally)
    and the forts by definition, as two 2^(n+b)-bit ints that hold graph
    base + g in block 2^b - 1 - g.  One reversal of the whole table
    (_fort_bits) takes block g there, and the bit of V in each block to lane
    0, the empty mask, which is cleared; the definition is built over the
    batch's reversed graph planes, so the two compare in one XOR."""
    forts = _fort_bits(closed, n + b) & ~_block_levels(n, b)[0]
    return forts, _batch_fort_definition(*_batch_edges(pairs, n, base, b, reverse=True))


def _batch_cover_sizes(forts: int, n: int, b: int) -> list[int]:
    """The fewest vertices meeting every fort, for each block of forts laid
    out as by _batch_fort_definition (at b = 0, one graph's fort table):
    n minus the largest mask that holds none, as S meets them all iff V - S
    holds none.  Every block is closed upward at once."""
    ones, planes = _chunk_planes(n + b)
    for i, plane in enumerate(planes[:n]):  # a shift by 2^i that lands on plane i stays in its block
        forts |= forts << (1 << i) & plane
    if not b:  # one graph: the per-graph path's scan from the top level down
        levels = _chunk_constants(n)[2]  # the empty mask holds no fort, so some level is not all forts
        return [n - next(j for j in range(n, -1, -1) if forts & levels[j] != levels[j])]
    # The fort-free masks are closed downward, so a block's largest has as
    # many vertices as the levels j >= 1 that hold one: lane j of found.
    levels = _block_levels(n, b)
    free, found = ones ^ forts, 0
    for j in range(1, n + 1):
        held = free & levels[j]
        for i in range(n):
            held |= held >> (1 << i)  # lane 0 of a block gathers lanes 0 to 2^n - 1 of it
        found |= (held & levels[0]) << j
    return [n - j for j in _block_counts(found, n, b)]


def _min_cover(zf: int, coeffs: Sequence[int], n: int) -> tuple[int, int]:
    size = _zero_forcing_number(coeffs)
    table = zf.to_bytes(max(1, 1 << n >> 3), "little")
    for combo in combinations(range(n), size):  # lexicographic order
        cover = mask_of(combo)
        if table[cover >> 3] >> (cover & 7) & 1:  # it meets every fort iff it forces
            return size, cover
    raise RuntimeError(f"no zero forcing set of size {size}, the first nonzero coefficient: "
                       "the zf and coefficient tables disagree")


def min_fort_cover(g: Graph) -> tuple[int, int]:
    """Minimum-size transversal of all forts: (size, witness mask).

    By the fort duality the size is Z(G), read off the flag table's
    coefficients; the witness is the zero forcing set of that size whose
    sorted vertex list is lexicographically smallest, which is the
    lexicographically smallest optimal transversal.
    """
    zf, _, coeffs = _flag_table(g)
    return _min_cover(zf, coeffs, g.n)


def fort_count_bound_holds(g: Graph) -> tuple[int, int, bool]:
    """Compare the fort count against 2^n minus the number of zero forcing sets."""
    _, closed, coeffs = _flag_table(g)
    lhs = closed.bit_count() - 1  # the proper closed sets, one per fort
    return (lhs, *_fort_count_bound(lhs, g.n, sum(coeffs)))


def _fort_count_bound(count: int, n: int, zfs_count: int) -> tuple[int, bool]:
    """The fort-count theorem for count forts of a graph on n vertices with
    zfs_count zero forcing sets: (the bound 2^n - zfs_count, whether count
    is within it)."""
    bound = (1 << n) - zfs_count
    return bound, count <= bound


def small_fort_coefficient_bound(g: Graph) -> list[tuple[int, int, int, bool]] | None:
    """Per-size comparison z(G;i) <= C(n,i) - C(n-i-1,i) when a small fort exists.

    Applies when some fort has size at most Z(G)+1; returns None otherwise.
    Rows are (i, coefficient, bound, holds).
    """
    n = g.n
    coeffs = _flag_table(g, join=False)
    if n == 0:
        return None  # the empty graph has no fort
    # a largest set that does not force is closed, so its complement is a
    # smallest fort
    smallest = n - max(i for i in range(n + 1) if coeffs[i] < binom(n, i))
    z = _zero_forcing_number(coeffs)
    if smallest > z + 1:
        return None
    bounds = poly_path(n).coeffs  # the path's, C(n,i) - C(n-i-1,i)
    return [(i, coeffs[i], bounds[i], coeffs[i] <= bounds[i]) for i in range(1, n + 1)]
