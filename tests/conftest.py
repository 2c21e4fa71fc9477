"""The tests' one seam for planted faults: a corruption of the flag tables
that every producer in the sweeps hands on, on the per-graph path, on the
batch path and on the closed-forms suite's threshold batches alike."""
import multiprocessing
from math import comb

import pytest

from zfpoly import from_edge_list, graph_from_edge_mask, sweeps, threshold_from_string
from zfpoly.graphs import edge_pair_order
from zfpoly.polynomial import _batch_tally, _blocks, _closure_tally, _joined, _lane_width, _threshold_tally, _unblocks


def edge_mask(g):
    """The edge mask of g, one bit per pair of edge_pair_order(g.n)."""
    return sum(1 << b for b, (u, v) in enumerate(edge_pair_order(g.n)) if g.has_edge(u, v))


def seeded_graph(rng, n, p):
    """A graph G(n, p) drawn from rng: each pair an edge with probability p."""
    return graph_from_edge_mask(n, sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < p))


def shuffle_labels(g, rng):
    """g with its vertices permuted by a shuffle drawn from rng."""
    perm = rng.sample(range(g.n), g.n)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def everywhere(corrupt):
    """corrupt(zf, coeffs) on every graph's table."""
    return lambda n, emask, table: corrupt(*table)


def only_at(g, corrupt):
    """corrupt(zf, coeffs) on the table of g alone."""
    target = (g.n, edge_mask(g))
    return lambda n, emask, table: corrupt(*table) if (n, emask) == target else table


def level_preserving_swap(zf, coeffs):
    """One zero forcing set of a size j > Z swapped with one set of size j
    that does not force, the lowest of each at the least such j: every
    coefficient stays, so only the fort duality sees the fault."""
    n = len(coeffs) - 1
    z = next(i for i, c in enumerate(coeffs) if c)
    for j in range(z + 1, n):
        if 0 < coeffs[j] < comb(n, j):
            level = [m for m in range(1 << n) if m.bit_count() == j]
            forcing = next(m for m in level if zf >> m & 1)
            other = next(m for m in level if not zf >> m & 1)
            return zf ^ (1 << forcing | 1 << other), coeffs
    return zf, coeffs


# Planted failures are module attributes patched in this process; pool
# workers see them only when they are forked from it.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="planted failures reach pool workers only through fork")


def clear_memos():
    """Empty the sweep's process memos: the order tables, the component
    products and the coefficient facts."""
    for memo in (sweeps._order_counts, sweeps._part_product, sweeps._facts):
        memo.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    """plant(corrupt) plants one fault in every producer of flag tables,
    sweeps._batch_tally, sweeps._threshold_tally and sweeps._closure_tally:
    corrupt(n, emask, table) gives the table, (zf as one 2^n-bit int,
    coefficient list), that each hands on for the graph of edge mask emask
    on n vertices (a threshold string's graph over edge_pair_order(n)).
    The batch producers' joined tables are split into per-graph blocks
    here, and _closure_tally's zf chunks joined, before the corruption, and
    then joined or split again.  Each plant wraps the real producers, so a
    later one replaces an earlier one.  Each plant, and the fixture's
    teardown, empties the sweep's process memos, so no table, product or
    fact outlives its fault."""
    def plant(corrupt):
        def corrupted(tables, n, b, emasks):
            zf, counts = tables
            tables = [corrupt(n, emask, (z, list(coeffs)))
                      for emask, z, coeffs in zip(emasks, _blocks(zf, n, b), counts)]
            zfs, coeffs = zip(*tables)
            return _unblocks(zfs, n), [tuple(c) for c in coeffs]

        def faulty_batch(pairs, n, base, b, edges=None):
            return corrupted(_batch_tally(pairs, n, base, b, edges), n, b, range(base, base + (1 << b)))

        def faulty_threshold(length, base, b):
            strings = (sweeps._threshold_string(length, bits) for bits in range(base, base + (1 << b)))
            return corrupted(_threshold_tally(length, base, b), length, b,
                             [edge_mask(threshold_from_string(s)) for s in strings])

        def faulty_tally(adj, n):
            emask = sum(1 << i for i, (u, v) in enumerate(edge_pair_order(n)) if adj[u] >> v & 1)
            zf, coeffs = _closure_tally(adj, n)
            zf, coeffs = corrupt(n, emask, (_joined(zf, n), coeffs))
            k = _lane_width(n)
            return _blocks(zf, k, n - k), coeffs

        monkeypatch.setattr(sweeps, "_batch_tally", faulty_batch)
        monkeypatch.setattr(sweeps, "_threshold_tally", faulty_threshold)
        monkeypatch.setattr(sweeps, "_closure_tally", faulty_tally)
        clear_memos()

    yield plant
    clear_memos()
