"""Forts and the fort-cover formulation of the zero forcing number.

A fort is a nonempty vertex set F such that no vertex outside F has exactly
one neighbor in F.  Every zero forcing set meets every fort, and the minimum
fort transversal has size Z(G).  That integer program is answered by one
exact decision search: is there a fort cover within a given budget?
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .closed_forms import binom
from .graphs import Graph, SizeCapError, vertices_of
from .polynomial import ZfPolynomial, _closure_tally, enumeration_cap


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


def _forts_from_table(closed: int, n: int) -> list[int]:
    """Every fort, ascending by mask, read off the closed bits of the table.

    A vertex of V - F can force iff it has exactly one neighbor in F, so F is
    a fort iff V - F is a proper closed set: the forts are the complements of
    the masks m != V whose closed bit is set.  Written out from bit V down,
    the digit at index p is the bit of mask V - p, whose complement is p.
    """
    digits = format(closed, f"0{1 << n}b")
    forts = []
    p = digits.find("1", 1)
    while p > 0:
        forts.append(p)
        p = digits.find("1", p + 1)
    return forts


def _coeffs_and_forts(g: Graph) -> tuple[list[int], list[int]]:
    """(coefficients, forts) of g, from one flag table."""
    cap = enumeration_cap()
    if g.n > cap:
        raise SizeCapError(f"fort enumeration over {g.n} vertices exceeds cap {cap}")
    _, closed, coeffs = _closure_tally(g.adj, g.n)
    return coeffs, _forts_from_table(closed, g.n)


def enumerate_forts(g: Graph) -> FortFamily:
    """All forts, as the complements of the proper closed sets, at every
    order up to the enumeration cap."""
    forts = _coeffs_and_forts(g)[1]
    forts.sort(key=lambda m: (m.bit_count(), m))
    return FortFamily(g.n, tuple(forts))


# ---------------------------------------------------------------------------
# Fort-cover decision search


def _packing_bound(uncovered: Sequence[int], allowed: int) -> int:
    """Count of pairwise-disjoint uncovered forts, restricted to allowed vertices."""
    taken = 0
    count = 0
    for f in uncovered:
        cand = f & allowed
        if cand and not (cand & taken):
            taken |= cand
            count += 1
    return count


def _cover_within(forts: Sequence[int], budget: int, excluded: int = 0) -> int | None:
    """A set of at most budget vertices, none in excluded, meeting every fort.

    Returns None when no such set exists.  Fail-first branching: branch on the
    fort with fewest candidate vertices (a fort down to one candidate forces
    it), and exclude each tried candidate from its later siblings, so the
    search is exact.  Disjoint forts each need their own vertex, which prunes.
    """
    if budget < 0:
        return None
    if not forts:
        return 0
    allowed = ~excluded
    if _packing_bound(forts, allowed) > budget:
        return None
    pivot = min((f & allowed for f in forts), key=int.bit_count)
    while pivot:
        bit = pivot & -pivot
        pivot ^= bit
        rest = _cover_within([f for f in forts if not f & bit], budget - 1, excluded)
        if rest is not None:
            return rest | bit
        excluded |= bit
    return None  # a fort with no candidate left, or every branch failed


def min_fort_cover(g: Graph) -> tuple[int, int]:
    """Minimum-size transversal of all forts: (size, witness mask).

    Among optimal witnesses, the one whose sorted vertex list is
    lexicographically smallest is returned.
    """
    forts = enumerate_forts(g).forts
    size = g.n  # V meets every fort
    while (cover := _cover_within(forts, size - 1)) is not None:
        size = cover.bit_count()
    chosen = 0
    excluded = 0
    for v in range(g.n):
        if chosen.bit_count() == size:
            break
        trial = chosen | 1 << v
        if _cover_within([f for f in forts if not f & trial], size - trial.bit_count(), excluded) is not None:
            chosen = trial
        else:
            excluded |= 1 << v
    return size, chosen


def fort_count_bound_holds(g: Graph) -> tuple[int, int, bool]:
    """Compare the fort count against 2^n minus the number of zero forcing sets."""
    coeffs, forts = _coeffs_and_forts(g)
    lhs = len(forts)
    rhs = (1 << g.n) - sum(coeffs)
    return lhs, rhs, lhs <= rhs


def small_fort_coefficient_bound(g: Graph) -> list[tuple[int, int, int, bool]] | None:
    """Per-size comparison z(G;i) <= C(n,i) - C(n-i-1,i) when a small fort exists.

    Applies when some fort has size at most Z(G)+1; returns None otherwise.
    Rows are (i, coefficient, bound, holds).
    """
    coeffs, forts = _coeffs_and_forts(g)
    if g.n == 0 or not forts:
        return None
    z = ZfPolynomial(g.n, tuple(coeffs)).zero_forcing_number()
    smallest = min(f.bit_count() for f in forts)
    if smallest > z + 1:
        return None
    rows = []
    for i in range(1, g.n + 1):
        bound = binom(g.n, i) - binom(g.n - i - 1, i)
        rows.append((i, coeffs[i], bound, coeffs[i] <= bound))
    return rows
