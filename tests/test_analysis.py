import itertools
import random
from math import comb

import networkx as nx
import pytest

from zfpoly import (
    all_labeled_graphs,
    all_min_sets_forcing,
    complete,
    complete_multipartite,
    cycle,
    cycle_polynomial_class,
    disjoint_union,
    empty,
    extremal_coefficients,
    from_edge_list,
    hall_monotonicity_holds,
    is_isomorphic,
    is_path_graph,
    join,
    path,
    path_bound_holds,
    poly_cycle,
    poly_wheel,
    recognizes_complete,
    recognizes_path,
    same_poly_threshold_family,
    star,
    threshold_from_string,
    wheel,
    zf_polynomial,
)
from zfpoly.analysis import _batch_structure, _structure
from zfpoly.graphs import _edge_mask_adj, edge_pair_order
from zfpoly.polynomial import _batch_bits
from zfpoly.sweeps import expected_cycle_class, random_graph_specs


def test_is_path_graph():
    assert is_path_graph(path(1))
    assert is_path_graph(path(6))
    assert not is_path_graph(cycle(4))
    assert not is_path_graph(star(4))
    assert not is_path_graph(disjoint_union(path(2), path(2)))


def test_extremal_k4():
    assert extremal_coefficients(complete(4)) == (1, 4, 0, 0)


def test_extremal_c4():
    # only the two opposite pairs share punctured neighborhoods
    assert extremal_coefficients(cycle(4)) == (1, 4, 4, 0)


def test_extremal_p6_matches_enumeration():
    got = extremal_coefficients(path(6))
    coeffs = zf_polynomial(path(6)).coeffs
    assert got == (coeffs[6], coeffs[5], coeffs[4], coeffs[1])
    assert got[3] == 2


def test_extremal_singleton():
    assert extremal_coefficients(empty(1)) == (1, 0, 0, 1)


def test_extremal_matches_enumeration_exhaustively():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            top, second, third, z1 = extremal_coefficients(g)
            coeffs = zf_polynomial(g).coeffs
            assert coeffs[n] == top
            assert coeffs[n - 1] == second
            if n >= 2:
                assert coeffs[n - 2] == third
            assert coeffs[1] == z1


def _naive_structure(n, emask):
    """_structure's row from networkx and a pair-by-pair twin count."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pair for i, pair in enumerate(edge_pair_order(n)) if emask >> i & 1)
    active = [v for v in g if g.degree(v)]
    twins = sum(1 for u, v in itertools.combinations(active, 2) if set(g[u]) - {v} != set(g[v]) - {u})
    return sum(1 << v for v in active), twins, int(nx.is_isomorphic(g, nx.path_graph(n))), int(nx.is_connected(g))


def test_structure_matches_networkx_and_a_naive_twin_count():
    # every labeled graph with 1 <= n <= 5, and with 6 <= n <= 12 seeded
    # graphs and, on a shuffled vertex order, a path, a path beside an
    # isolated vertex, and a cycle
    graphs = [(n, emask) for n in range(1, 6) for emask in range(1 << comb(n, 2))]
    graphs += random_graph_specs(200, 6, 12, seed=2929)
    rng = random.Random(2929)
    for n in range(6, 13):
        pairs = edge_pair_order(n)
        order = rng.sample(range(n), n)
        links = [pairs.index(tuple(sorted(e))) for e in zip(order, order[1:] + order[:1])]
        graphs += [(n, sum(1 << i for i in links[:k])) for k in (n - 1, n - 2, n)]
    for n, emask in graphs:
        assert _structure(_edge_mask_adj(edge_pair_order(n), n, emask), n) == _naive_structure(n, emask), (n, emask)
    assert _structure([], 0)[2] == 0  # the empty graph is no path


def test_batch_structure_matches_the_per_graph_kernels():
    # every labeled graph with 3 <= n <= 6 at the sweep's width and one
    # narrower, and seeded batches of 2^10 graphs at n = 7
    batches = [(n, base, b) for n in range(3, 7) for b in {_batch_bits(n), _batch_bits(n) - 1}
               for base in range(0, 1 << comb(n, 2), 1 << b)]
    rng = random.Random(2424)
    batches += [(7, rng.randrange(0, 1 << 21, 1 << 10), 10) for _ in range(2)]
    for n, base, b in batches:
        pairs = edge_pair_order(n)
        got = _batch_structure(pairs, n, base, b)
        assert got == [_structure(_edge_mask_adj(pairs, n, base + g), n) for g in range(1 << b)], (n, base, b)


def test_all_min_sets_forcing_examples():
    assert all_min_sets_forcing(complete(5))
    assert all_min_sets_forcing(empty(4))
    assert not all_min_sets_forcing(path(4))


def test_all_min_sets_forcing_characterizes_extremes():
    full = {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            extreme = g.edge_count() in (0, n * (n - 1) // 2)
            assert all_min_sets_forcing(g) == extreme
    assert sorted(complete(5).edges()) == sorted(full)


def test_hall_monotonicity_examples():
    assert hall_monotonicity_holds(path(4))
    assert hall_monotonicity_holds(cycle(6))


def test_path_bound_examples():
    assert path_bound_holds(cycle(7))
    assert path_bound_holds(complete(5))


def test_recognizers_on_families():
    assert recognizes_path(zf_polynomial(path(5)))
    assert not recognizes_path(zf_polynomial(cycle(5)))
    assert recognizes_complete(zf_polynomial(wheel(4)))
    assert not recognizes_complete(zf_polynomial(star(4)))


def test_recognizers_are_exact_at_n5():
    for g in all_labeled_graphs(5):
        poly = zf_polynomial(g)
        assert recognizes_path(poly) == is_path_graph(g)
        assert recognizes_complete(poly) == (g.edge_count() == 10)


@pytest.mark.parametrize("n", range(3, 8))
def test_cycle_class_matches_the_list(n):
    reps = cycle_polynomial_class(n)
    expected = expected_cycle_class(n)
    assert len(reps) == len(expected)
    for g in expected:
        assert sum(1 for h in reps if is_isomorphic(g, h)) == 1


def test_cycle_class_n6_includes_exceptional_join():
    reps = cycle_polynomial_class(6)
    expected = expected_cycle_class(6)
    assert len(reps) == len(expected) == 4
    exceptional = join(disjoint_union(path(4), empty(1)), complete(1))
    assert any(is_isomorphic(h, exceptional) for h in reps)
    for g in expected:
        assert sum(1 for h in reps if is_isomorphic(g, h)) == 1


def test_cycle_class_range_guard():
    with pytest.raises(ValueError):
        cycle_polynomial_class(8)


def test_subdivided_k4_matches_wheel5():
    subdivided = from_edge_list(5, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert zf_polynomial(subdivided) == poly_wheel(5)


def test_clique_union_matches_bipartite():
    for a in range(2, 6):
        for b in range(2, 6):
            union_poly = zf_polynomial(disjoint_union(complete(a), complete(b)))
            assert union_poly == zf_polynomial(complete_multipartite([a, b]))


def test_threshold_family_k3():
    family = same_poly_threshold_family(3)
    strings = [b for b, _ in family]
    assert sorted(strings) == ["1100111", "1110011"]
    polys = [p for _, p in family]
    assert polys[0] == polys[1]
    g1, g2 = (threshold_from_string(b) for b in strings)
    assert not is_isomorphic(g1, g2)


def test_threshold_family_k4_counts():
    family = same_poly_threshold_family(4)
    assert len(family) == 6
    polys = [p for _, p in family]
    assert all(p == polys[0] for p in polys)


def test_threshold_family_k5_formulas_agree():
    family = same_poly_threshold_family(5)
    assert len(family) == 24
    polys = [p for _, p in family]
    assert all(p.n == 20 and p == polys[0] for p in polys)


def test_threshold_family_range_guard():
    with pytest.raises(ValueError):
        same_poly_threshold_family(6)


def test_phi_polynomial_is_the_cycle_polynomial():
    for n in range(3, 8):
        coeffs = poly_cycle(n).coeffs
        assert coeffs[0] == 0 and (n < 2 or coeffs[1] == 0)
        assert zf_polynomial(cycle(n)).coeffs == coeffs
