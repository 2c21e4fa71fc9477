import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_has_ham_path
from zfpoly import (
    Graph,
    GraphFormatError,
    SizeCapError,
    all_labeled_graphs,
    block_partition,
    cartesian_product,
    complete,
    complete_multipartite,
    connected_components,
    cycle,
    cycle_plus_chord,
    disjoint_union,
    empty,
    from_edge_list,
    from_edge_list_text,
    from_graph6,
    graph_from_edge_mask,
    has_hamiltonian_path,
    is_isomorphic,
    join,
    mask_of,
    path,
    star,
    threshold_from_string,
    to_graph6,
    vertices_of,
    wheel,
)

random_graphs = st.integers(1, 8).flatmap(
    lambda n: st.builds(
        lambda mask: graph_from_edge_mask(n, mask),
        st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
    )
)


def test_from_edge_list_path():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.degrees() == (1, 2, 1)


def test_from_edge_list_isolated():
    g = from_edge_list(2, [])
    assert g.edge_count() == 0 and g.n == 2


def test_from_edge_list_c4():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.degrees() == (2, 2, 2, 2)


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("bad", [[(0, 3)], [(-1, 0)], [(1, 1)]])
def test_from_edge_list_rejects(bad):
    with pytest.raises(ValueError):
        from_edge_list(3, bad)


def test_graph_cap():
    with pytest.raises(SizeCapError):
        from_edge_list(65, [])


def test_graph_validates_symmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_edge_list_text_roundtrip():
    text = "# sample\n4 2\n0 1\n2 3  # trailing comment\n"
    g = from_edge_list_text(text)
    assert g.edges() == [(0, 1), (2, 3)]


@pytest.mark.parametrize("text", ["", "3\n", "2 1\n", "2 1\n0 1\n1 0\n", "2 x\n"])
def test_edge_list_text_rejects(text):
    with pytest.raises(GraphFormatError):
        from_edge_list_text(text)


def test_graph6_decode_p3():
    # "Bg" is the standard encoding of the 3-path (checked against networkx)
    assert from_graph6("Bg") == path(3)


def test_graph6_decode_empty_pair():
    assert from_graph6("A?") == empty(2)


def test_graph6_header_accepted():
    assert from_graph6(">>graph6<<Bg") == path(3)


@pytest.mark.parametrize("bad", ["", "B", "Bgg", "B\x01", ">>graph6<<"])
def test_graph6_rejects(bad):
    with pytest.raises(GraphFormatError):
        from_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # order 3 uses 3 bits; '~' = 63 sets padding bits
    with pytest.raises(GraphFormatError):
        from_graph6("B~")


def test_graph6_order_above_cap():
    # long-form order field for n = 100
    with pytest.raises(SizeCapError):
        from_graph6("~?@c")


@settings(max_examples=60, deadline=None)
@given(random_graphs)
def test_graph6_roundtrip_against_networkx(g):
    encoded = to_graph6(g)
    assert from_graph6(encoded) == g
    ref = nx.from_graph6_bytes(encoded.encode())
    assert sorted(ref.edges()) == sorted(g.edges())
    ours = from_graph6(nx.to_graph6_bytes(ref).decode().strip())
    assert ours == g


def test_wheel4_is_k4():
    assert is_isomorphic(wheel(4), complete(4))


def test_wheel_hub_dominates():
    g = wheel(6)
    assert g.degree(5) == 5 and all(g.degree(v) == 3 for v in range(5))


def test_multipartite_2_2_is_c4():
    assert is_isomorphic(complete_multipartite([2, 2]), cycle(4))


def test_star_shape():
    g = star(4)
    assert g.degree(3) == 3 and sorted(g.degrees()) == [1, 1, 1, 3]


@pytest.mark.parametrize("builder,arg", [(cycle, 2), (path, 0), (wheel, 3), (star, 0)])
def test_family_size_preconditions(builder, arg):
    with pytest.raises(ValueError):
        builder(arg)


def test_cycle_plus_chord_diamond():
    got = cycle_plus_chord(4, 0, 2)
    want = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert got == want


def test_cycle_plus_chord_c5_unique_class():
    chords = [(i, j) for i in range(5) for j in range(i + 1, 5) if (j - i) % 5 not in (1, 4)]
    graphs = [cycle_plus_chord(5, i, j) for i, j in chords]
    assert all(is_isomorphic(graphs[0], g) for g in graphs)


@pytest.mark.parametrize("i,j", [(0, 1), (0, 0), (3, 0)])
def test_cycle_plus_chord_rejects_non_chords(i, j):
    with pytest.raises(ValueError):
        cycle_plus_chord(4, i, j)


def test_disjoint_union_counts():
    g = disjoint_union(complete(2), complete(2))
    assert g.n == 4 and g.edge_count() == 2
    assert connected_components(g) == [0b0011, 0b1100]


def test_join_edge_count():
    g1, g2 = path(4), complete(3)
    j = join(g1, g2)
    assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n


def test_exceptional_join_graph_has_dominating_vertex():
    g = join(disjoint_union(path(4), empty(1)), complete(1))
    assert g.n == 6
    assert g.degree(5) == 5


def test_cartesian_product_square():
    assert is_isomorphic(cartesian_product(path(2), path(2)), cycle(4))


@given(st.integers(1, 5), st.integers(1, 5))
def test_grid_edge_count(m, n):
    g = cartesian_product(path(m), path(n))
    assert g.edge_count() == 2 * m * n - m - n


def test_threshold_string_families():
    assert is_isomorphic(threshold_from_string("1111"), complete(4))
    assert is_isomorphic(threshold_from_string("0001"), star(4))
    want = from_edge_list(4, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    assert threshold_from_string("0011") == want


def test_threshold_rejects_bad_chars():
    with pytest.raises(ValueError):
        threshold_from_string("10x1")


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=12))
def test_threshold_first_symbol_irrelevant(b):
    flipped = ("1" if b[0] == "0" else "0") + b[1:]
    assert threshold_from_string(b) == threshold_from_string(flipped)


def test_block_partition_examples():
    bp = block_partition("11011")
    assert bp.blocks == ((1, 2), (0, 1), (1, 2))
    bp = block_partition("0011")
    assert bp.blocks == ((0, 2), (1, 2))
    bp = block_partition("10")
    assert bp.blocks == ((1, 1), (0, 1))


def test_connected_components_examples():
    assert connected_components(cycle(5)) == [0b11111]
    assert connected_components(empty(3)) == [1, 2, 4]


def test_isomorphic_examples():
    assert not is_isomorphic(path(4), star(4))
    grid = cartesian_product(path(2), path(3))
    assert not is_isomorphic(cycle(6), grid)  # 6 vs 7 edges


def test_isomorphic_reflexive_symmetric_small():
    graphs = list(all_labeled_graphs(4))
    for g in graphs:
        assert is_isomorphic(g, g)
    for g, h in itertools.islice(itertools.combinations(graphs, 2), 300):
        assert is_isomorphic(g, h) == is_isomorphic(h, g)


@settings(max_examples=40, deadline=None)
@given(random_graphs, random_graphs)
def test_isomorphic_matches_networkx(g, h):
    def to_nx(gr):
        out = nx.Graph()
        out.add_nodes_from(range(gr.n))
        out.add_edges_from(gr.edges())
        return out

    try:
        ours = is_isomorphic(g, h)
    except SizeCapError:
        return
    assert ours == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_isomorphism_cap_only_hits_search():
    # degree sequences differ, so no permutation search is attempted
    assert not is_isomorphic(star(12), path(12))
    # identical labeled graphs short-circuit before the search
    assert is_isomorphic(cycle(12), cycle(12))
    relabeled = from_edge_list(12, [((5 * i) % 12, (5 * (i + 1)) % 12) for i in range(12)])
    with pytest.raises(SizeCapError):
        is_isomorphic(cycle(12), relabeled)


def test_hamiltonian_path_examples():
    assert has_hamiltonian_path(path(7))
    assert not has_hamiltonian_path(star(4))
    assert has_hamiltonian_path(cycle(5))


def test_hamiltonian_path_matches_permutation_oracle():
    for g in all_labeled_graphs(4):
        assert has_hamiltonian_path(g) == naive_has_ham_path(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, (1 << 15) - 1))
def test_hamiltonian_path_oracle_n6(mask):
    g = graph_from_edge_mask(6, mask)
    assert has_hamiltonian_path(g) == naive_has_ham_path(g)


@pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
def test_all_labeled_graph_counts(n, count):
    graphs = list(all_labeled_graphs(n))
    assert len(graphs) == count
    assert len(set(graphs)) == count


def test_all_labeled_graphs_cap():
    with pytest.raises(SizeCapError):
        next(all_labeled_graphs(8))


def test_mask_helpers():
    assert vertices_of(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
