"""The tests' one seam for planted faults: a corruption of the flag tables
that both of the sweep's producers hand on, on the per-graph path and on
the batch path alike."""
import pytest

from zfpoly import from_edge_list, graph_from_edge_mask, sweeps
from zfpoly.graphs import edge_pair_order
from zfpoly.polynomial import _batch_tally, _blocks, _closure_tally, _unblocks


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
    """corrupt(zf, closed, coeffs) on every graph's table."""
    return lambda n, emask, table: corrupt(*table)


def only_at(g, corrupt):
    """corrupt(zf, closed, coeffs) on the table of g alone."""
    target = (g.n, edge_mask(g))
    return lambda n, emask, table: corrupt(*table) if (n, emask) == target else table


def clear_memos():
    """Empty the sweep's process memos: the order tables, the component
    products and the coefficient facts."""
    for memo in (sweeps._order_counts, sweeps._part_product, sweeps._facts):
        memo.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    """plant(corrupt) plants one fault in both producers of flag tables,
    sweeps._batch_tally and sweeps._closure_tally: corrupt(n, emask, table)
    gives the table, (zf, closed, coefficient list), that each hands on for
    the graph of edge mask emask on n vertices.  The batch producer's joined
    tables are split into per-graph blocks here, corrupted and joined again.
    Each plant wraps the real producers, so a later one replaces an earlier
    one.  Each plant, and the fixture's teardown, empties the sweep's process
    memos, so no table, product or fact outlives its fault."""
    def plant(corrupt):
        def faulty_batch(pairs, n, base, b):
            zf, closed, counts = _batch_tally(pairs, n, base, b)
            tables = [corrupt(n, base + g, (z, c, list(coeffs)))
                      for g, (z, c, coeffs) in enumerate(zip(_blocks(zf, n, b), _blocks(closed, n, b), counts))]
            zfs, closeds, coeffs = zip(*tables)
            return _unblocks(zfs, n), _unblocks(closeds, n), [tuple(c) for c in coeffs]

        def faulty_tally(adj, n):
            emask = sum(1 << i for i, (u, v) in enumerate(edge_pair_order(n)) if adj[u] >> v & 1)
            return corrupt(n, emask, _closure_tally(adj, n))

        monkeypatch.setattr(sweeps, "_batch_tally", faulty_batch)
        monkeypatch.setattr(sweeps, "_closure_tally", faulty_tally)
        clear_memos()

    yield plant
    clear_memos()
