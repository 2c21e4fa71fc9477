"""Zero forcing color change rule: closures, force lists, forcing chains.

A colored vertex with exactly one uncolored neighbor forces that neighbor.
All functions are pure; vertex sets are int bitmasks as in :mod:`.graphs`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, vertices_of


def closure_table(g: Graph) -> list[int]:
    """List mapping every subset mask to its closure; index by subset.

    Masks are processed in decreasing order; applying any one force and
    looking up the (already computed) closure of the larger set is valid
    because the rule is confluent.
    """
    adj = g.adj
    full = g.vertex_mask
    table = [0] * (full + 1)
    table[full] = full
    for mask in range(full - 1, -1, -1):
        res = mask
        rem = mask
        while rem:
            b = rem & -rem
            rem ^= b
            unc = adj[b.bit_length() - 1] & ~mask
            if unc and not (unc & (unc - 1)):
                res = table[mask | unc]
                break
        table[mask] = res
    return table


def _check_subset(g: Graph, colored: int) -> None:
    if colored & ~g.vertex_mask:
        raise ValueError("colored set contains vertices outside the graph")


def closure(g: Graph, colored: int) -> int:
    """Set of colored vertices once no further force is possible."""
    _check_subset(g, colored)
    return _sweep(g.adj, colored)[1]


def is_zero_forcing_set(g: Graph, colored: int) -> bool:
    """True iff the closure of the set is the whole vertex set."""
    _check_subset(g, colored)
    return _sweep(g.adj, colored)[1] == g.vertex_mask


@dataclass(frozen=True)
class ForceRecord:
    """A replayable chronological list of forces starting from an initial set."""

    initial: int
    forces: tuple[tuple[int, int], ...]
    closure: int

    def to_json_dict(self) -> dict:
        return {
            "initial": vertices_of(self.initial),
            "forces": [[u, v] for u, v in self.forces],
            "closure": vertices_of(self.closure),
        }


def _chronological_forces(adj: Sequence[int], n: int, colored: int) -> tuple[list[tuple[int, int]], int]:
    full = (1 << n) - 1
    state = colored
    forces: list[tuple[int, int]] = []
    while state != full:
        for u in range(n):
            if (state >> u) & 1:
                unc = adj[u] & ~state
                if unc and not (unc & (unc - 1)):
                    forces.append((u, unc.bit_length() - 1))
                    state |= unc
                    break
        else:
            break  # no vertex can force: state is the closure
    return forces, state


def _sweep(adj: Sequence[int], colored: int) -> tuple[int, int]:
    """(the vertices that force in one chronological list of forces from
    colored, the closure of colored): the one per-set run of the color
    change rule.

    Sweeps the colored vertices that have not forced, in vertex order, and
    performs each force as soon as it applies, so the forces performed form
    a chronological list.  A vertex with no uncolored neighbor never forces
    again and leaves the sweep, so a sweep that forces nothing ends at the
    closure.
    """
    state = active = colored
    forcers = 0
    while True:
        before = state
        rem = active
        while rem:
            b = rem & -rem
            rem ^= b
            unc = adj[b.bit_length() - 1] & ~state
            if unc & (unc - 1):
                continue  # two or more uncolored neighbors: not yet
            active ^= b
            if unc:
                forcers |= b
                state |= unc
                active |= unc
        if state == before:
            return forcers, state


def _lane_forcers(ones: int, planes: Sequence[int], nbrs: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """_sweep's forcers from every lane at once: lane L is colored at v iff
    bit L of planes[v] is set, nbrs[v] lists (w, the lanes with the edge
    vw), and bit L of entry v of the result is set iff v is in lane L's
    forcer set."""
    uncolored = [ones ^ p for p in planes[:len(nbrs)]]
    forcers = [0] * len(nbrs)
    moved = True
    while moved:  # a lane that stopped cannot change again
        moved = False
        # a round visits, in vertex order, the vertices colored at its start:
        # one that left _sweep's active set has no uncolored neighbor left
        colored = [ones ^ u for u in uncolored]
        for v, edges in enumerate(nbrs):
            one = two = 0
            unc = [(w, e & uncolored[w]) for w, e in edges]
            for _, u in unc:
                two |= one & u
                one |= u
            forcing = (one ^ two) & colored[v]  # colored at the start, one uncolored neighbor
            if forcing:
                moved = True
                forcers[v] |= forcing
                for w, u in unc:
                    uncolored[w] ^= forcing & u
    return forcers


def _lane_reversals(zf: int, ones: int, forcers: Sequence[int]) -> int:
    """Bit L is set iff zf, a table of the lanes of forcers (from _lane_forcers
    on n = len(forcers) vertices), holds bit V - (L's forcer set) of L's block
    of 2^n lanes.  A multiplexer: leaf t spreads bit t of each block over the
    block, and level v picks between leaves by the lanes where v is terminal."""
    width = 1 << len(forcers)
    spaced = ones // ((1 << width) - 1)  # bit 0 of each block
    top = spaced << (width - 1)  # the top bit of each block
    terminal = [ones ^ lanes for lanes in forcers]
    picked = []  # depth first, like a binary counter: entry v picks among 2^v leaves
    for t in range(width):
        leaf = top - (zf >> t & spaced)  # each block's bit t over the block, xor top (picks commute with it)
        v = 0
        while t >> v & 1:
            low = picked.pop()
            leaf = low ^ ((low ^ leaf) & terminal[v])
            v += 1
        picked.append(leaf)
    return picked[0] ^ top


def chronological_forces(g: Graph, colored: int) -> ForceRecord:
    """Deterministic force list reaching the closure.

    Tie-break: at every step the applicable force with the smallest
    (forcer, forced) pair is performed.
    """
    _check_subset(g, colored)
    forces, state = _chronological_forces(g.adj, g.n, colored)
    return ForceRecord(colored, tuple(forces), state)


def forcing_chains(record: ForceRecord) -> list[tuple[int, ...]]:
    """Partition the closure into maximal chains of consecutive forces.

    Each chain starts at an initially colored vertex and ends at a terminal
    vertex; initial vertices that never force give chains of length zero.
    Chains are ordered by their starting vertex.
    """
    successor = dict(record.forces)
    if len(successor) != len(record.forces):
        raise ValueError("a vertex forces more than once in the record")
    chains = []
    for head in vertices_of(record.initial):
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(tuple(chain))
    return chains
