import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_closure, naive_is_zfs
from zfpoly import (
    all_labeled_graphs,
    chronological_forces,
    closure,
    closure_table,
    complete,
    cycle,
    enumerate_forts,
    forcing_chains,
    from_edge_list,
    graph_from_edge_mask,
    is_zero_forcing_set,
    mask_of,
    path,
    vertices_of,
    wheel,
    zf_polynomial,
)
from zfpoly import polynomial
from zfpoly.forcing import _lane_forcers, _lane_reversals, _sweep
from zfpoly.graphs import _edge_mask_adj, edge_pair_order
from zfpoly.forts import _fort_definition_bits, _reversed, _up_closure
from zfpoly.polynomial import _batch_edges, _closure_tally, _joined, _unblocks

graph_and_set = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.builds(
            lambda mask: graph_from_edge_mask(n, mask),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        ),
        st.integers(0, (1 << n) - 1),
    )
)

K4_MINUS_EDGE = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_closure_stalls_on_triangle():
    assert closure(complete(3), 0b001) == 0b001


def test_closure_sweeps_path_from_end():
    assert closure(path(3), 0b001) == 0b111


def test_closure_stalls_on_opposite_cycle_pair():
    assert closure(cycle(4), 0b0101) == 0b0101


def test_closure_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        closure(path(3), 0b1000)


def test_exhaustive_closure_agrees_with_naive_oracle():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for mask in range(1 << n):
                want = mask_of(naive_closure(g, set(vertices_of(mask))))
                assert closure(g, mask) == want


@settings(max_examples=80, deadline=None)
@given(graph_and_set)
def test_closure_agrees_with_naive_oracle(gs):
    g, mask = gs
    assert closure(g, mask) == mask_of(naive_closure(g, set(vertices_of(mask))))


@settings(max_examples=40, deadline=None)
@given(graph_and_set)
def test_closure_table_matches_per_subset_closure(gs):
    g, _ = gs
    table = closure_table(g)
    for mask in range(1 << g.n):
        assert table[mask] == closure(g, mask)


def _assert_bits_match_the_closure_table(g):
    table = closure_table(g)
    zf, coeffs = _closure_tally(g.adj, g.n)
    zf = _joined(zf, g.n)
    assert len(table) == 1 << g.n
    assert zf >> (1 << g.n) == 0
    for m, c in enumerate(table):
        assert zf >> m & 1 == (c == g.vertex_mask), m
    return table, zf, coeffs


def test_flags_match_the_closure_table_exhaustively():
    for n in range(7):
        for g in all_labeled_graphs(n):
            _assert_bits_match_the_closure_table(g)


def _assert_table_matches_closures(g):
    # the bits against the list table, the coefficients against the sweep
    # engine, the forts by definition against the list table's proper
    # closed sets, and the zf bits against the fort duality: a mask forces
    # iff it lies in no proper closed set
    table, zf, coeffs = _assert_bits_match_the_closure_table(g)
    assert tuple(coeffs) == zf_polynomial(g, engine="sweep").coeffs
    proper_closed = [m for m, c in enumerate(table) if c == m != g.vertex_mask]
    forts = sorted(g.vertex_mask ^ m for m in proper_closed)
    definition = _fort_definition_bits(g.adj, g.n)
    assert definition == sum(1 << f for f in forts)
    assert sorted(enumerate_forts(g).forts) == forts
    assert _reversed(_up_closure(definition, g.n, 0), g.n) == (1 << (1 << g.n)) - 1 ^ zf


@pytest.mark.parametrize("n", [13, 14])
def test_chunked_table_matches_the_closure_table(n):
    # past _CHUNK_BITS = 12 vertices the table spans 2^(n-12) chunks, so
    # forces into the high vertices read earlier chunks
    rng = random.Random(n)
    graphs = [graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)) for _ in range(2)]
    for g in (path(n), cycle(n), wheel(n)):
        perm = rng.sample(range(n), n)
        graphs.append(from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for g in graphs:
        _assert_table_matches_closures(g)


@pytest.mark.parametrize("width", [3, 5])
def test_narrow_chunks_match_the_closure_table(monkeypatch, width):
    # narrower chunks put every order above the width through the chunked path
    monkeypatch.setattr(polynomial, "_CHUNK_BITS", width)
    for n in range(7):
        for g in all_labeled_graphs(n) if n <= 5 else [path(n), cycle(n), wheel(n)]:
            _assert_table_matches_closures(g)
    rng = random.Random(width)
    for n in (7, 8, 9):
        for _ in range(5):
            _assert_table_matches_closures(graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))


def test_all_ones_chunks_are_the_high_sets_that_force(monkeypatch):
    # chunk h is all ones iff its high vertex set h forces alone, that is
    # iff lane 0 of chunk h, the mask h << k, is set in the joined zf;
    # those chunks add binomials in place of level counts, and still match
    # the list table and the sweep engine
    monkeypatch.setattr(polynomial, "_CHUNK_BITS", 3)
    ones = (1 << (1 << 3)) - 1
    rng = random.Random(35)
    graphs = [path(7), cycle(8), wheel(9), graph_from_edge_mask(8, rng.getrandbits(28))]
    for g in graphs:
        zf_chunks = _closure_tally(g.adj, g.n)[0]
        zf = _joined(zf_chunks, g.n)
        assert any(chunk == ones for chunk in zf_chunks), g
        _assert_table_matches_closures(g)  # the joined zf bits and the coefficients
        assert [chunk == ones for chunk in zf_chunks] == [zf >> (h << 3) & 1 == 1 for h in range(len(zf_chunks))]


@settings(max_examples=60, deadline=None)
@given(graph_and_set, st.randoms(use_true_random=False))
def test_closure_confluent_under_random_force_order(gs, rng):
    g, mask = gs
    colored = mask
    while True:
        options = []
        for u in vertices_of(colored):
            unc = g.adj[u] & ~colored
            if unc and not (unc & (unc - 1)):
                options.append(unc)
        if not options:
            break
        colored |= rng.choice(options)
    assert colored == closure(g, mask)


@settings(max_examples=60, deadline=None)
@given(graph_and_set, st.integers(0, (1 << 7) - 1))
def test_closure_monotone(gs, extra):
    g, mask = gs
    combined = (mask | extra) & g.vertex_mask
    assert closure(g, mask) & ~closure(g, combined) == 0


def test_is_zero_forcing_set_examples():
    assert is_zero_forcing_set(K4_MINUS_EDGE, 0b0101)  # {0, 2}
    assert not is_zero_forcing_set(K4_MINUS_EDGE, 0b0011)  # {0, 1}
    for g in all_labeled_graphs(3):
        assert is_zero_forcing_set(g, g.vertex_mask)


def test_chronological_forces_path():
    rec = chronological_forces(path(3), 0b001)
    assert rec.forces == ((0, 1), (1, 2))
    assert rec.closure == 0b111


def test_chronological_forces_tie_break():
    rec = chronological_forces(cycle(4), 0b0011)
    assert rec.forces == ((0, 3), (1, 2))


def test_chronological_forces_nothing_uncolored():
    rec = chronological_forces(complete(3), 0b111)
    assert rec.forces == ()


def _replay(g, rec):
    colored = rec.initial
    for u, v in rec.forces:
        unc = g.adj[u] & ~colored
        assert (colored >> u) & 1, "forcer must be colored"
        assert unc == 1 << v, "forced vertex must be the unique uncolored neighbor"
        colored |= 1 << v
    return colored


@settings(max_examples=80, deadline=None)
@given(graph_and_set)
def test_force_records_replay(gs):
    g, mask = gs
    rec = chronological_forces(g, mask)
    assert _replay(g, rec) == rec.closure == closure(g, mask)
    forced = [v for _, v in rec.forces]
    assert len(set(forced)) == len(forced)
    assert all(not (mask >> v) & 1 for v in forced)


def test_forcing_chains_path():
    rec = chronological_forces(path(5), 0b00001)
    assert forcing_chains(rec) == [(0, 1, 2, 3, 4)]


def test_forcing_chains_cycle_pair():
    rec = chronological_forces(cycle(4), 0b0011)
    assert forcing_chains(rec) == [(0, 3), (1, 2)]


def test_forcing_chains_zero_length():
    rec = chronological_forces(complete(3), 0b111)
    assert forcing_chains(rec) == [(0,), (1,), (2,)]


def test_force_record_json_schema():
    rec = chronological_forces(path(3), 0b001)
    assert rec.to_json_dict() == {
        "initial": [0],
        "forces": [[0, 1], [1, 2]],
        "closure": [0, 1, 2],
    }


@settings(max_examples=80, deadline=None)
@given(graph_and_set)
def test_forcing_chains_partition_into_disjoint_paths(gs):
    g, mask = gs
    rec = chronological_forces(g, mask)
    chains = forcing_chains(rec)
    seen = 0
    for chain in chains:
        assert (mask >> chain[0]) & 1, "chains start at initial vertices"
        for a, b in zip(chain, chain[1:]):
            assert g.has_edge(a, b), "chains follow edges"
        cm = mask_of(chain)
        assert not (cm & seen), "chains are vertex-disjoint"
        seen |= cm
    assert seen == rec.closure, "chains partition the closure"


def _reversal_holds(g):
    poly = zf_polynomial(g)
    z = poly.zero_forcing_number()
    full = g.vertex_mask
    for mask in range(full + 1):
        if mask.bit_count() != z or closure(g, mask) != full:
            continue
        rec = chronological_forces(g, mask)
        tails = mask_of(chain[-1] for chain in forcing_chains(rec))
        if closure(g, tails) != full:
            return False
    return True


def test_reversal_of_minimum_sets_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert _reversal_holds(g)


def test_sweep_gives_the_closure_and_one_forcer_per_forced_vertex():
    # every labeled graph with n <= 5 and every colored set S: the sweep
    # ends at the closure, and each vertex it colors is forced by a vertex
    # of its own
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for mask in range(1 << n):
                forcers, closed = _sweep(g.adj, mask)
                assert closed == mask_of(naive_closure(g, set(vertices_of(mask)))), (g.adj, mask)
                assert forcers.bit_count() == closed.bit_count() - mask.bit_count(), (g.adj, mask)


def test_forcers_of_a_zero_forcing_set_leave_terminals_that_force():
    # a chronological list from S has n - |S| forces, one per forcer, and
    # its terminals V - forcers force again (the reversal theorem)
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for mask in range(1 << n):
                if not naive_is_zfs(g, set(vertices_of(mask))):
                    continue
                forcers = _sweep(g.adj, mask)[0]
                assert forcers.bit_count() == n - mask.bit_count()
                assert naive_is_zfs(g, set(vertices_of(g.vertex_mask & ~forcers)))


def _lane_batches(seed):
    """(n, base, b): every labeled graph with n <= 5, in batches of 2^3 and
    one graph at a time, and seeded batches at n = 6 and 7."""
    batches = [(n, base, b) for n in range(1, 6) for b in ({0, 3} if n >= 3 else {0})
               for base in range(0, 1 << n * (n - 1) // 2, 1 << b)]
    rng = random.Random(seed)
    return batches + [(n, rng.randrange(0, 1 << n * (n - 1) // 2, 1 << b), b) for n, b in [(6, 9), (7, 10)]]


def test_lane_forcers_match_the_forcers_of_each_graph():
    # every mask of every graph of the batches
    for n, base, b in _lane_batches(6767):
        pairs = edge_pair_order(n)
        got = _lane_forcers(*_batch_edges(pairs, n, base, b))
        for g in range(1 << b):
            adj = _edge_mask_adj(pairs, n, base + g)
            block = [plane >> (g << n) & (1 << (1 << n)) - 1 for plane in got]  # bit m of entry v: v forces from m
            lanes = [sum((plane >> mask & 1) << v for v, plane in enumerate(block)) for mask in range(1 << n)]
            assert lanes == [_sweep(adj, mask)[0] for mask in range(1 << n)], (n, base + g)


@pytest.mark.parametrize("table", ["flag-table", "random"])
def test_lane_reversals_match_the_forcers_of_each_graph(table):
    # every mask of every graph of the batches: bit L is bit V - _sweep's forcers
    # of the graph's table, its own zero forcing bits or random bits
    rng = random.Random(6868)
    for n, base, b in _lane_batches(6868):
        pairs = edge_pair_order(n)
        ones, planes, nbrs = _batch_edges(pairs, n, base, b)
        adjs = [_edge_mask_adj(pairs, n, base + g) for g in range(1 << b)]
        tables = [_joined(_closure_tally(adj, n)[0], n) if table == "flag-table" else rng.getrandbits(1 << n)
                  for adj in adjs]
        got = _lane_reversals(_unblocks(tables, n), ones, _lane_forcers(ones, planes, nbrs))
        for g, (adj, zf) in enumerate(zip(adjs, tables)):
            want = sum((zf >> ((1 << n) - 1 & ~_sweep(adj, mask)[0]) & 1) << mask for mask in range(1 << n))
            assert got >> (g << n) & (1 << (1 << n)) - 1 == want, (n, base + g)


@pytest.mark.parametrize("n", [6, 7])
def test_reversal_of_minimum_sets_sampled(n):
    rng = random.Random(20240000 + n)
    pairs = n * (n - 1) // 2
    for _ in range(120):
        g = graph_from_edge_mask(n, rng.getrandbits(pairs))
        assert _reversal_holds(g)
