import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_graph, shuffle_labels
from oracles import naive_zf_coeffs
from zfpoly import (
    Graph,
    SizeCapError,
    ZfPolynomial,
    all_labeled_graphs,
    complete,
    complete_multipartite,
    count_zfs,
    cycle,
    cycle_plus_chord,
    disjoint_union,
    empty,
    enumerate_forts,
    enumeration_cap,
    extremal_coefficients,
    fort_count_bound_holds,
    from_edge_list,
    graph_from_edge_mask,
    induced_subgraph,
    multiply,
    path,
    poly_cycle,
    poly_path,
    poly_wheel,
    small_fort_coefficient_bound,
    star,
    threshold_from_string,
    wheel,
    zf_polynomial,
    zf_polynomial_by_components,
)
from zfpoly import polynomial
from zfpoly.forcing import _sweep
from zfpoly.graphs import _edge_mask_adj, edge_pair_order, mask_of, vertices_of
from zfpoly.polynomial import (_band_order, _batch_bits, _batch_tally, _blocks, _chunk_planes, _close_up,
                               _closure_tally, _induced_adj, _lane_width, _relabeled, _unblocks)

P4_COEFFS = (0, 2, 6, 4, 1)  # 2x + 6x^2 + 4x^3 + x^4


def test_p4_reference_coefficients():
    assert zf_polynomial(path(4)).coeffs == P4_COEFFS


def test_w5_reference_coefficients():
    assert zf_polynomial(wheel(5)).coeffs == (0, 0, 0, 8, 5, 1)


def test_isolated_vertices_force_nothing():
    assert zf_polynomial(empty(3)).coeffs == (0, 0, 0, 1)


def test_order_zero_convention():
    # the one chunk, of one lane, is all ones: the empty set forces V = {},
    # and no force applies at it
    assert zf_polynomial(empty(0)).coeffs == (1,)
    assert _closure_tally((), 0) == (1, 1, [1])
    assert _closure_tally((), 0, join=False) == [1]


def test_engines_agree_exhaustively():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            want = naive_zf_coeffs(g)
            assert zf_polynomial(g, engine="sweep").coeffs == want
            assert zf_polynomial(g, engine="table").coeffs == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engines_agree_on_random_graphs(seed):
    rng = random.Random(seed)
    for _ in range(4):
        n = rng.randint(8, 12)
        g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        assert (
            zf_polynomial(g, engine="sweep").coeffs
            == zf_polynomial(g, engine="table").coeffs
        )


@pytest.mark.parametrize("width", [polynomial._CHUNK_BITS, 3], ids=["real-width", "width-3"])
def test_lane_layout(monkeypatch, width):
    # the flag table's chunks; the width is read on each call, so a
    # narrower width takes effect at once
    monkeypatch.setattr(polynomial, "_CHUNK_BITS", width)
    rng = random.Random(width)
    for n in range(15):
        t = rng.getrandbits(1 << n)
        k = _lane_width(n)
        chunks = _blocks(t, k, n - k)
        assert len(chunks) == 1 << (n - k) and _unblocks(chunks, k) == t
        # bit t of chunk h is mask h << k | t: a low vertex's plane is the
        # chunk's own plane in every chunk, a high vertex's all ones or zero
        ones, low = _chunk_planes(k)
        for j, plane in enumerate(_chunk_planes(n)[1]):
            want = [low[j] if j < k else ones * (h >> (j - k) & 1) for h in range(1 << (n - k))]
            assert _blocks(plane, k, n - k) == want


def test_chunk_planes_match_the_definition():
    for k in range(11):
        ones, planes = _chunk_planes(k)
        assert ones == (1 << (1 << k)) - 1 and len(planes) == k
        for i, plane in enumerate(planes):
            assert plane == sum(1 << m for m in range(1 << k) if m >> i & 1), (k, i)
    for k in (16, 20):
        size = 1 << k
        ones, planes = _chunk_planes(k)
        assert ones.bit_length() == ones.bit_count() == size
        for i, plane in enumerate(planes):
            run = 1 << i
            # 2^(k-1) masks hold i; the first period is 2^i zeros then 2^i
            # ones, and the plane repeats with period 2^(i+1)
            assert plane.bit_count() == size >> 1
            assert plane & ((1 << 2 * run) - 1) == ((1 << run) - 1) << run
            assert plane >> 2 * run == plane & ((1 << (size - 2 * run)) - 1)


def _joined_tallies(pairs, n, emasks):
    """The _closure_tally tables of emasks, joined as _batch_tally joins them."""
    zf, closed, coeffs = zip(*(_closure_tally(_edge_mask_adj(pairs, n, e), n) for e in emasks))
    return _unblocks(zf, n), _unblocks(closed, n), list(map(tuple, coeffs))


@pytest.mark.parametrize("n", range(3, 7))
def test_batch_tally_matches_the_closure_tally_on_every_graph(n):
    # each width puts graphs in other blocks and other edges in the planes
    pairs = edge_pair_order(n)
    for b in sorted({0, 1, 3, _batch_bits(n) - 1, _batch_bits(n)}):
        for base in range(0, 1 << len(pairs), 1 << b):
            assert _batch_tally(pairs, n, base, b) == _joined_tallies(pairs, n, range(base, base + (1 << b))), b


def test_batch_tally_matches_the_closure_tally_at_order_seven():
    n, b = 7, _batch_bits(7)
    pairs = edge_pair_order(n)
    rng = random.Random(77)
    for base in [rng.randrange(0, 1 << 21, 1 << b) for _ in range(2)] + [(1 << 21) - (1 << b)]:
        assert _batch_tally(pairs, n, base, b) == _joined_tallies(pairs, n, range(base, base + (1 << b))), base


def test_table_engine_runs_past_order_twenty():
    # the table serves every order up to the cap; the n = 21 and 22 cycles
    # and the wheel at the cap meet their closed forms, and the sweep oracle
    # agrees on a relabelled graph of each family
    assert zf_polynomial(cycle(21)) == poly_cycle(21)
    assert zf_polynomial(cycle(22)) == poly_cycle(22)
    assert zf_polynomial(wheel(24)) == poly_wheel(24)
    rng = random.Random(2121)
    for g, want in ((path(24), poly_path(24)), (cycle(24), poly_cycle(24))):
        # most chunks of a relabeled path or cycle at the cap are all ones
        perm = rng.sample(range(24), 24)
        assert zf_polynomial(from_edge_list(24, [(perm[u], perm[v]) for u, v in g.edges()])) == want
    for g in (path(8), cycle(8), complete(8), empty(8), star(8), wheel(8),
              complete_multipartite([3, 3, 2]), threshold_from_string("11010011"),
              cycle_plus_chord(8, 0, 3)):
        perm = rng.sample(range(8), 8)
        h = from_edge_list(8, [(perm[u], perm[v]) for u, v in g.edges()])
        assert zf_polynomial(h) == zf_polynomial(h, engine="sweep") == zf_polynomial(g)


def test_close_up_fills_the_last_lane_at_the_real_width():
    # a chunk one lane short of all ones, whose lane 0 reads lane 1: the
    # close-up runs one more round, and stops at all ones or when nothing
    # changes
    ones = _chunk_planes(polynomial._CHUNK_BITS)[0]
    assert _close_up(ones ^ 1, [(1, 1)], ones) == ones
    assert _close_up(ones ^ 1, [(1, 1)]) == ones
    assert _close_up(ones ^ 2, [(1, 1)], ones) == ones ^ 2  # lane 1 reads nothing
    assert _close_up(ones, [], ones) == ones


def _level_counts(zf, n):
    """The coefficients read off the joined zf bits: the masks of j
    vertices that force, one level of the flat 2^n-bit table at a time."""
    return [(zf & level).bit_count() for level in polynomial._chunk_constants(n)[2]]


def test_coefficient_mode_matches_the_joined_coefficients(monkeypatch):
    # both modes sum their chunks in bit-sliced counters, the oracle counts
    # each level of the joined zf bits: at the real width on seeded G(n, p)
    # up to 64 chunks, and at a narrow width on every labeled graph up to 8
    # chunks and on seeded graphs of 16, where up to 6 chunks share one |h|
    # and a count carries into a third plane
    rng = random.Random(37)
    graphs = [seeded_graph(rng, n, p) for n in range(13, 19) for p in (0.1, 0.2, 0.35, 0.6)]
    for g in graphs:
        zf, _, coeffs = _closure_tally(g.adj, g.n)
        assert _closure_tally(g.adj, g.n, join=False) == coeffs == _level_counts(zf, g.n), g
    monkeypatch.setattr(polynomial, "_CHUNK_BITS", 3)
    graphs = [g for n in range(7) for g in all_labeled_graphs(n)]
    graphs += [seeded_graph(rng, 7, p) for p in (0.15, 0.3, 0.5, 0.7) for _ in range(500)]
    for g in graphs:
        zf, _, coeffs = _closure_tally(g.adj, g.n)
        assert _closure_tally(g.adj, g.n, join=False) == coeffs == _level_counts(zf, g.n), g


def test_both_modes_meet_the_closed_forms_on_relabeled_families():
    # up to 4,096 chunks, unbanded and over the band order
    rng = random.Random(38)
    for n in range(19, 25):
        for family, closed_form in ((path, poly_path), (cycle, poly_cycle), (wheel, poly_wheel)):
            g = shuffle_labels(family(n), rng)
            want = list(closed_form(n).coeffs)
            assert _closure_tally(g.adj, n, join=False) == _closure_tally(g.adj, n)[2] == want, g
            assert polynomial._flag_table(g, join=False) == want, g


def test_coefficient_mode_closes_up_only_the_chunks_its_seeds_leave_short(monkeypatch):
    # _close_up receives each chunk's seeds, the bits its forces into high
    # vertices copy: the joined mode closes up every chunk, the coefficient
    # mode, in the same order, only the chunks whose seeds are not all ones
    ones = _chunk_planes(polynomial._CHUNK_BITS)[0]
    seeds = []
    monkeypatch.setattr(polynomial, "_close_up", lambda z, moves, stop=-1: seeds.append(z) or _close_up(z, moves, stop))
    rng = random.Random(37)
    for family in (cycle, wheel):
        g = shuffle_labels(family(20), rng)
        adj = _relabeled(g.adj, _band_order(g.adj, g.n))
        seeds.clear()
        coeffs = _closure_tally(adj, g.n)[2]
        every = seeds[:]
        seeds.clear()
        assert _closure_tally(adj, g.n, join=False) == coeffs
        assert len(every) == 1 << (g.n - _lane_width(g.n))
        assert seeds == [z for z in every if z != ones]
        assert len(seeds) < len(every)


def _rebuilt_moves(adj, n, h):
    """Chunk h's moves from scratch: per low w, the lanes t whose mask
    h << k | t misses w and holds N[v] - w for some neighbor v of w."""
    k = _lane_width(n)
    ones, planes = _chunk_planes(k)
    moves = []
    for w in range(k):
        f = 0
        for v in vertices_of(adj[w]):
            rest = (adj[v] | 1 << v) & ~(1 << w)
            if rest >> k & ~h:
                continue
            lanes = ones ^ planes[w]
            for x in vertices_of(rest & ((1 << k) - 1)):
                lanes &= planes[x]
            f |= lanes
        if f:
            moves.append((1 << w, f))
    return moves


def test_each_chunk_closes_up_under_its_own_moves(monkeypatch):
    # the moves are kept while h & gate stays: on a banded cycle gate is
    # the high vertices next to the low band, and runs of chunks share one
    # list; on a banded wheel the hub is high, gate is every high bit, and
    # each chunk builds its own.  Either way, each chunk's moves are a
    # rebuild from scratch for its h, in both modes, the coefficient mode's
    # chunks being the joined mode's whose seeds are not all ones
    ones = _chunk_planes(polynomial._CHUNK_BITS)[0]
    calls = []
    monkeypatch.setattr(polynomial, "_close_up",
                        lambda z, moves, stop=-1: calls.append((z, moves)) or _close_up(z, moves, stop))
    rng = random.Random(38)
    for family in (cycle, wheel):
        g = shuffle_labels(family(20), rng)
        adj = _relabeled(g.adj, _band_order(g.adj, g.n))
        top = (1 << (g.n - _lane_width(g.n))) - 1
        calls.clear()
        _closure_tally(adj, g.n)
        joined = calls[:]
        calls.clear()
        _closure_tally(adj, g.n, join=False)
        short = [top - i for i, (z, _) in enumerate(joined) if z != ones]
        assert len(joined) == top + 1 and len(calls) == len(short)
        for h, (_, moves) in [*zip(range(top, -1, -1), joined), *zip(short, calls)]:
            assert moves == _rebuilt_moves(adj, g.n, h), (family.__name__, h)
        lists = len({id(moves) for _, moves in joined})
        if family is cycle:
            assert lists < len(joined) // 4
        else:
            hub = next(v for v, row in enumerate(adj) if row.bit_count() == g.n - 1)
            assert hub >= _lane_width(g.n) and lists == len(joined)


def _band_cases():
    """Seeded G(n, p) at n = 13-18, disconnected graphs, and relabeled
    paths, cycles and wheels at n = 19-24."""
    rng = random.Random(36)
    graphs = [seeded_graph(rng, n, p) for n in range(13, 19) for p in (0.1, 0.2, 0.35, 0.6)]
    graphs += [disjoint_union(path(9), cycle(6)), disjoint_union(wheel(8), empty(6)),
               shuffle_labels(disjoint_union(cycle(7), wheel(9)), rng),
               shuffle_labels(disjoint_union(seeded_graph(rng, 7, 0.3), seeded_graph(rng, 9, 0.3)), rng),
               # the isolated vertices come first in the order, and are high
               shuffle_labels(disjoint_union(empty(2), path(13)), rng),
               shuffle_labels(disjoint_union(empty(1), cycle(15)), rng)]
    return graphs, [shuffle_labels(family(n), rng) for n in range(19, 25) for family in (path, cycle, wheel)]


def test_band_order_is_a_permutation_whose_high_vertices_force():
    # the first n - k vertices of the order become the high ones and force
    # alone, so in the relabeled table the top chunk, its top 2^k bits, is
    # all ones
    graphs, families = _band_cases()
    banded = 0
    for g in graphs + families:
        order = _band_order(g.adj, g.n)
        if order is None:
            continue
        banded += 1
        n, k = g.n, _lane_width(g.n)
        assert sorted(order) == list(range(n))
        assert _sweep(g.adj, mask_of(order[k:]))[1] == g.vertex_mask
        adj = _relabeled(g.adj, order)
        assert all(adj[i] >> j & 1 == g.adj[order[i]] >> order[j] & 1 for i in range(n) for j in range(n))
        if n <= 18:
            assert _closure_tally(adj, n)[0] >> ((1 << n) - (1 << k)) == _chunk_planes(k)[0]
    assert banded > len(families)


def test_cuthill_mckee_visits_new_neighbors_by_ascending_degree():
    # the isolated 7 first, then from 2, the least degree of the other
    # component: 0, its new neighbors 3 (degree 2) before 1 (degree 3), and
    # the tie of 4 and 5 by label
    g = from_edge_list(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6)])
    degree = [a.bit_count() for a in g.adj]
    assert list(polynomial._cuthill_mckee(g.adj, degree)) == [7, 2, 0, 3, 1, 6, 4, 5]


def _bounded_graphs():
    """Graphs at n = 14 past each counting bound of _band_order but no other."""
    pendant = from_edge_list(14, list(complete(13).edges()) + [(0, 13)])  # 79 edges
    matching = from_edge_list(14, [(2 * i, 2 * i + 1) for i in range(7)])  # 7 components
    prism = disjoint_union(cycle(7), cycle(7)).adj
    prism = Graph(14, tuple(a | 1 << (v + 7) % 14 for v, a in enumerate(prism)))  # 3-regular
    return [pendant, matching, prism]  # past the edge, component and least-degree bounds


def test_band_order_skips_what_cannot_pay():
    # one chunk has no high vertex; a least degree, a component count or an
    # edge count beyond what n - k forcing vertices allow skips before any
    # sweep; otherwise the first n - k vertices of the order are swept and
    # must force
    assert _band_order(wheel(12).adj, 12) is None
    assert _band_order(path(13).adj, 13) == list(range(1, 13)) + [0]  # from an end of the path
    assert _band_order(cycle(13).adj, 13) is None  # least degree 2, one high vertex
    for g in _bounded_graphs():
        assert _band_order(g.adj, 14) is None
    assert _band_order(star(14).adj, 14) is None  # swept: a leaf and the center leave 11 leaves
    assert _band_order(cycle(14).adj, 14) is not None


def test_band_order_bounds_skip_only_graphs_that_no_high_set_forces(monkeypatch):
    # the counting bounds hold: a graph skipped before any sweep has no
    # zero forcing set of n - k vertices
    swept = []
    monkeypatch.setattr(polynomial, "_sweep", lambda adj, colored: swept.append(colored) or _sweep(adj, colored))
    graphs, _ = _band_cases()
    skipped = 0
    for g in graphs + _bounded_graphs() + [wheel(14), complete(13), star(15)]:
        swept.clear()
        order = _band_order(g.adj, g.n)
        if not swept:
            skipped += 1
            assert order is None
            assert _closure_tally(g.adj, g.n, join=False)[g.n - _lane_width(g.n)] == 0
    assert skipped > 5


def test_banded_coefficients_match_the_unrelabeled_kernel():
    # the relabeling changes the chunks but not the coefficients, on the
    # graphs it relabels and on those it skips; the families all relabel
    graphs, families = _band_cases()
    taken = set()
    for g in graphs + families:
        taken.add(_band_order(g.adj, g.n) is not None)
        assert polynomial._flag_table(g, join=False) == _closure_tally(g.adj, g.n)[2]
    assert taken == {True, False}
    assert all(_band_order(g.adj, g.n) is not None for g in families)


def test_small_fort_coefficient_bound_rows_do_not_depend_on_the_relabeling(monkeypatch):
    graphs, families = _band_cases()
    graphs += families[:6]
    banded = [small_fort_coefficient_bound(g) for g in graphs]
    monkeypatch.setattr(polynomial, "_band_order", lambda adj, n: None)
    assert banded == [small_fort_coefficient_bound(g) for g in graphs]
    assert sum(rows is not None for rows in banded) > 5


def test_unknown_engine_rejected():
    # before the empty graph's shortcut and before the enumeration cap
    for g in (path(3), empty(0), path(30)):
        with pytest.raises(ValueError, match="unknown engine 'psychic'"):
            zf_polynomial(g, engine="psychic")


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("ZFPOLY_MAX_N", "4")
    with pytest.raises(ValueError):
        zf_polynomial(path(5))
    monkeypatch.setenv("ZFPOLY_MAX_N", "5")
    assert zf_polynomial(path(5)).coeffs[1] == 2


def test_one_enumeration_cap_for_every_enumeration(monkeypatch):
    monkeypatch.setenv("ZFPOLY_MAX_N", "6")
    for enumerate_ in (zf_polynomial, lambda g: count_zfs(g, 2), enumerate_forts, fort_count_bound_holds):
        with pytest.raises(SizeCapError):
            enumerate_(path(7))
        enumerate_(path(6))


def test_enumeration_cap_env_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv("ZFPOLY_MAX_N", "twenty")
    with pytest.raises(ValueError, match="must be an integer, got 'twenty'"):
        enumeration_cap()
    with pytest.raises(ValueError, match="must be an integer"):
        zf_polynomial(path(2))


def test_enumeration_cap_env_rejects_negative(monkeypatch):
    monkeypatch.setenv("ZFPOLY_MAX_N", "-1")
    with pytest.raises(ValueError, match="nonnegative"):
        enumeration_cap()
    with pytest.raises(ValueError, match="nonnegative"):
        zf_polynomial(path(2))


def test_count_zfs_examples():
    assert count_zfs(cycle(7), 2) == 7
    assert count_zfs(complete(4), 3) == 4
    assert count_zfs(path(4), 2) == 6


@pytest.mark.parametrize("size", [-1, 5])
def test_count_zfs_rejects_a_size_outside_the_order(size):
    with pytest.raises(ValueError, match=f"size {size} out of range for order 4"):
        count_zfs(path(4), size)


@pytest.mark.parametrize("n, coeffs, message", [
    (-1, (), "order must be nonnegative"),
    (2, (0, 1), "exactly n\\+1 coefficients"),
    (1, (0, 1, 0), "exactly n\\+1 coefficients"),
    (2, (0, -1, 1), "coefficients must be nonnegative"),
], ids=["negative-order", "too-few", "too-many", "negative-coefficient"])
def test_zf_polynomial_rejects_a_malformed_coefficient_vector(n, coeffs, message):
    with pytest.raises(ValueError, match=message):
        ZfPolynomial(n, coeffs)
    with pytest.raises(ValueError, match=message):
        ZfPolynomial.from_json_dict({"n": n, "coeffs": [str(c) for c in coeffs]})


def test_count_zfs_matches_polynomial():
    g = graph_from_edge_mask(5, 0b1011001101)
    poly = zf_polynomial(g)
    assert [count_zfs(g, i) for i in range(6)] == list(poly.coeffs)


def test_multiply_two_edges():
    k2 = zf_polynomial(complete(2))
    assert multiply(k2, k2).coeffs == (0, 0, 4, 4, 1)


def test_multiply_identity():
    p = zf_polynomial(path(4))
    one = ZfPolynomial(0, (1,))
    assert multiply(p, one) == p


def test_multiply_matches_disjoint_union_enumeration():
    k2, k3 = complete(2), complete(3)
    product = multiply(zf_polynomial(k2), zf_polynomial(k3))
    assert product.coeffs == (0, 0, 0, 6, 5, 1)
    assert product == zf_polynomial(disjoint_union(k2, k3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 6) - 1), st.integers(0, (1 << 6) - 1))
def test_multiply_consistent_with_evaluation(m1, m2):
    p = zf_polynomial(graph_from_edge_mask(4, m1))
    q = zf_polynomial(graph_from_edge_mask(4, m2))
    prod = multiply(p, q)
    assert prod.n == p.n + q.n
    for x in (1, 2, Fraction(1, 3)):
        assert prod.evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_by_components_two_edges():
    g = disjoint_union(complete(2), complete(2))
    assert zf_polynomial_by_components(g).coeffs == (0, 0, 4, 4, 1)


def test_by_components_connected_graph():
    g = cycle(5)
    assert zf_polynomial_by_components(g) == zf_polynomial(g)


def test_by_components_needs_only_each_component_within_the_cap(monkeypatch):
    monkeypatch.delenv("ZFPOLY_MAX_N", raising=False)
    g = disjoint_union(path(15), cycle(14))  # 29 vertices, past the cap of 24
    with pytest.raises(SizeCapError):
        zf_polynomial(g)
    assert zf_polynomial_by_components(g) == poly_path(15) * poly_cycle(14)


def test_by_components_isolated_vertices():
    assert zf_polynomial_by_components(empty(2)).coeffs == (0, 0, 1)


def test_by_components_agrees_exhaustively_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert zf_polynomial_by_components(g) == zf_polynomial(g)


def test_by_components_agrees_on_random_corpus():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 12)
        # bias towards sparse graphs so disconnected cases actually occur
        mask = 0
        p = rng.uniform(0.05, 0.5)
        for b in range(n * (n - 1) // 2):
            if rng.random() < p:
                mask |= 1 << b
        g = graph_from_edge_mask(n, mask)
        assert zf_polynomial_by_components(g) == zf_polynomial(g)


def test_induced_subgraph_relabels():
    g = path(5)
    sub = induced_subgraph(g, 0b11100)
    assert sub.n == 3 and sub.edges() == [(0, 1), (1, 2)]


def test_induced_adj_matches_a_naive_relabel():
    # seeded graphs and vertex masks of every density up to n = 64, the
    # empty and the full mask among them
    rng = random.Random(6464)
    for trial in range(400):
        n = rng.randint(1, 64)
        adj = _edge_mask_adj(edge_pair_order(n), n, rng.getrandbits(n * (n - 1) // 2))
        density = rng.random()
        mask = [0, (1 << n) - 1][trial] if trial < 2 else sum(1 << v for v in range(n) if rng.random() < density)
        verts = vertices_of(mask)
        naive = [sum(1 << i for i, u in enumerate(verts) if adj[v] >> u & 1) for v in verts]
        assert _induced_adj(adj, mask) == naive, (n, mask)


def test_evaluate_examples():
    assert zf_polynomial(path(4)).evaluate(1) == 13
    assert zf_polynomial(complete(3)).evaluate(1) == 4
    assert zf_polynomial(complete(3)).evaluate(0) == 0


def test_evaluate_exact_fractions():
    p = ZfPolynomial(2, (0, 1, 2))
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 2) + 2 * Fraction(1, 4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, (1 << 10) - 1),
    st.fractions(min_value=0, max_value=4),
    st.fractions(min_value=0, max_value=4),
)
def test_strictly_increasing_on_nonnegatives(mask, a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    p = zf_polynomial(graph_from_edge_mask(5, mask))
    assert p.evaluate(a) < p.evaluate(b)


def test_zero_forcing_number_examples():
    assert zf_polynomial(cycle(6)).zero_forcing_number() == 2
    assert zf_polynomial(complete(5)).zero_forcing_number() == 4
    assert zf_polynomial(path(9)).zero_forcing_number() == 1


def test_zero_forcing_number_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        ZfPolynomial(2, (0, 0, 0)).zero_forcing_number()


@pytest.mark.parametrize(
    "coeffs,expected",
    [((0, 2, 6, 4, 1), True), ((0, 0, 4, 4, 1), True), ((0, 1, 0, 2, 1), False)],
)
def test_is_unimodal(coeffs, expected):
    assert ZfPolynomial(len(coeffs) - 1, coeffs).is_unimodal() is expected


def test_is_unimodal_matches_the_segment_definition():
    # the nonzero segment rises weakly to some peak p, then falls weakly
    for length in range(1, 7):
        for coeffs in itertools.product(range(3), repeat=length):
            support = [i for i, c in enumerate(coeffs) if c]
            seg = coeffs[support[0]:support[-1] + 1] if support else (0,)
            want = any(all(a <= b for a, b in zip(seg[:p], seg[1:p + 1]))
                       and all(a >= b for a, b in zip(seg[p:], seg[p + 1:])) for p in range(len(seg)))
            assert ZfPolynomial(length - 1, coeffs).is_unimodal() is want, coeffs


def test_json_roundtrip_preserves_big_integers():
    p = ZfPolynomial(2, (0, 10**30, 1))
    again = ZfPolynomial.from_json(p.to_json())
    assert again == p
    assert '"coeffs": ["0", "1000000000000000000000000000000", "1"]' in p.to_json()


def test_pretty_rendering():
    assert zf_polynomial(wheel(5)).pretty() == "8x^3 + 5x^4 + x^5"
    assert ZfPolynomial(1, (0, 2)).pretty() == "2x"
    assert ZfPolynomial(0, (1,)).pretty() == "1"


def test_sign_change_near_real_root():
    p = ZfPolynomial(4, P4_COEFFS)
    # one negative real root sits between -0.47 and -0.45; the other pair is complex
    assert p.evaluate(Fraction(-47, 100)) > 0
    assert p.evaluate(Fraction(-45, 100)) < 0
    assert p.evaluate(-1) > 0
    assert p.evaluate(Fraction(-1, 10)) < 0


def test_second_highest_coefficient_counts_non_isolated():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        poly = zf_polynomial(g)
        assert poly.coeffs[n - 1] == extremal_coefficients(g)[1]


def test_hall_monotone_small():
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            coeffs = zf_polynomial(g).coeffs
            for i in range(1, n):
                if 2 * i < n:
                    assert coeffs[i] <= coeffs[i + 1]
