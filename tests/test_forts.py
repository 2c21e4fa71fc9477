import itertools
import random
import re
from math import comb

import pytest

from conftest import edge_mask, everywhere, level_preserving_swap, needs_fork, only_at, seeded_graph, shuffle_labels
from oracles import naive_forts, naive_min_cover_size
from zfpoly import (
    all_labeled_graphs,
    complete,
    cycle,
    disjoint_union,
    empty,
    enumerate_forts,
    fort_count_bound_holds,
    graph_from_edge_mask,
    is_fort,
    is_zero_forcing_set,
    mask_of,
    min_fort_cover,
    path,
    poly_threshold,
    small_fort_coefficient_bound,
    star,
    threshold_from_string,
    vertices_of,
    zf_polynomial,
)
from zfpoly import polynomial, sweeps
from zfpoly.forts import _batch_cover_sizes, _batch_fort_definition, _fort_definition_bits, _reversed, _up_closure
from zfpoly.graphs import _edge_mask_adj, edge_pair_order
from zfpoly.polynomial import (_batch_bits, _batch_edges, _batch_tally, _block_counts, _blocks, _closure_tally, _joined,
                               _lane_width)
from zfpoly.sweeps import SWEEP_SUITE_CHECKS, exhaustive_sweep, random_sweep, run_suite


def test_is_fort_examples():
    p3 = path(3)
    assert is_fort(p3, 0b101)  # the middle vertex sees both members
    assert not is_fort(p3, 0b001)  # the middle vertex sees exactly one
    assert not is_fort(p3, 0)
    for g in all_labeled_graphs(3):
        assert is_fort(g, g.vertex_mask)


def test_enumerate_forts_examples():
    assert enumerate_forts(path(3)).forts == (0b101, 0b111)
    k3 = enumerate_forts(complete(3))
    assert k3.forts == (0b011, 0b101, 0b110, 0b111)
    assert enumerate_forts(empty(2)).forts == (0b01, 0b10, 0b11)


def test_enumerate_forts_matches_naive_oracle():
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    rng = random.Random(6060)
    for _ in range(40):
        n = rng.randint(6, 9)
        graphs.append(graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
    for g in graphs:
        got = {frozenset(vertices_of(f)) for f in enumerate_forts(g).forts}
        assert got == naive_forts(g)


def _on_the_batch_path(checks, g):
    """The batch path's records of the 2^3 graphs around g: with a fault
    planted at g alone, [(g's edge mask, its records)]."""
    b, target = 3, edge_mask(g)
    return sweeps._check_batch(frozenset(checks), g.n, b, target >> b << b)


def _duality_diff(g):
    """The per-graph fort duality of g: the masks where its joined zf bits
    and the reversed upward closure of its forts by definition both hold
    or both miss."""
    n = g.n
    zf = _joined(_closure_tally(g.adj, n)[0], n)
    return _reversed(_up_closure(_fort_definition_bits(g.adj, n), n, 0), n) ^ zf ^ (1 << (1 << n)) - 1


def test_sweep_kernel_checks_every_derived_fort(plant):
    # the sets that lie in no proper closed set by the definition are the
    # sets that force by the zf bits ...
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert _duality_diff(g) == 0, g.edges()
    assert exhaustive_sweep({"fort-transversal"}, max_n=5)[1] == []

    # ... and a zf bit that breaks the duality is reported: {0} forces the
    # whole 3-path; claim it does not
    plant(only_at(path(3), lambda zf, coeffs: (zf ^ 1 << 0b001, coeffs)))
    path3 = 0b101  # edges (0, 1) and (1, 2) in edge_pair_order(3)
    for checks in ({"fort-transversal"}, {"fort-count-bound"}, {"ip"}):
        _, records = random_sweep(checks, [(3, path3)])
        assert records and records[0]["check"] == "fort-transversal", checks
        assert records[0]["detail"] == "set 0x1 lies in no proper closed set but does not force"
        assert _on_the_batch_path(checks, path(3)) == [(path3, [(r["check"], r["detail"]) for r in records])]

    # ... by every check that reads the forts, so a suite files it though it
    # does not list fort-transversal: no pair of K4 forces, and the pair
    # {1, 2} claimed to force lies in the closed set V - {0, 3}
    k4 = edge_mask(complete(4))
    plant(only_at(complete(4), lambda zf, coeffs: (zf | 1 << 0b0110, coeffs)))
    assert "fort-transversal" not in SWEEP_SUITE_CHECKS["ip"]
    report = run_suite("ip", max_n=4)
    assert [(r["check"], r["n"], r["graph"], r["detail"]) for r in report["failures"]] == [
        ("fort-transversal", 4, k4, "zero forcing set 0x6 lies in a proper closed set"),
    ]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_a_level_preserving_zf_swap_fails_the_fort_duality_in_the_suite(plant, jobs):
    # the fault keeps every coefficient, so of the forts suite only
    # fort-transversal sees it, on every graph that has such a swap
    def swappable(n, emask):
        zf, coeffs = _closure_tally(graph_from_edge_mask(n, emask).adj, n)
        zf = _joined(zf, n)
        return level_preserving_swap(zf, coeffs) != (zf, coeffs)

    graphs = [(n, emask) for n in range(1, 6) for emask in range(1 << comb(n, 2)) if swappable(n, emask)]
    plant(everywhere(level_preserving_swap))
    report = run_suite("forts", max_n=5, jobs=jobs)
    assert [(r["n"], r["graph"]) for r in report["failures"]] == graphs and len(graphs) > 100
    assert {r["check"] for r in report["failures"]} == {"fort-transversal"}
    assert all(re.fullmatch(r"(zero forcing )?set 0x[0-9a-f]+ lies in (a|no) proper closed set( but does not force)?",
                            r["detail"]) for r in report["failures"])


def test_ip_check_reports_a_shifted_zero_forcing_number(plant):
    # a cover of size z must exist and none of size z - 1; moving the first
    # nonzero coefficient up breaks the second, moving it down the first
    def shifted(step):
        def corrupt(zf, coeffs):
            z = next(i for i, c in enumerate(coeffs) if c)
            coeffs[z + step], coeffs[z] = coeffs[z], 0
            return zf, coeffs
        return corrupt

    graphs = [path(3), complete(4)]  # Z = 1 and Z = 3
    specs = [(g.n, edge_mask(g)) for g in graphs]
    assert random_sweep({"ip"}, specs)[1] == []
    for step in (1, -1):
        plant(lambda n, emask, table: shifted(step)(*table) if (n, emask) in specs else table)
        _, records = random_sweep({"ip"}, specs)
        assert [(r["check"], r["n"]) for r in records] == [("ip", 3), ("ip", 4)], step
        for g, r in zip(graphs, records):
            assert _on_the_batch_path({"ip"}, g) == [(edge_mask(g), [(r["check"], r["detail"])])], step


def test_ip_check_reports_missing_forts(monkeypatch):
    # every set of two or more vertices is a fort of K4; hiding the three
    # pairs through vertex 0 from the definition lets two of 1, 2, 3 meet
    # every fort left, and leaves V minus each of those pairs in no proper
    # closed set, though it does not force: {1, 2} = 0x6 is the lowest
    hidden = 1 << 0b0011 | 1 << 0b0101 | 1 << 0b1001
    definition, batch_definition = sweeps._fort_definition_bits, sweeps._batch_fort_definition
    monkeypatch.setattr(sweeps, "_fort_definition_bits", lambda adj, n: definition(adj, n) & ~hidden)
    # in every block of a batch at n = 4
    monkeypatch.setattr(sweeps, "_batch_fort_definition", lambda ones, planes, nbrs: batch_definition(
        ones, planes, nbrs) & ~sum(hidden << (g << 4) for g in range(ones.bit_length() >> 4)))
    _, records = random_sweep({"ip"}, [(4, 0b111111)])
    expected = [
        ("fort-transversal", "set 0x6 lies in no proper closed set but does not force"),
        ("ip", "a fort cover smaller than the zero forcing number 3"),
    ]
    assert [(r["check"], r["detail"]) for r in records] == expected
    assert dict(_on_the_batch_path({"ip"}, complete(4)))[0b111111] == expected


@pytest.mark.parametrize(
    "flipped, detail",
    [
        ((0b1100, 0b0110), "zero forcing set 0x6 lies in a proper closed set"),
        ((0b1110, 0b0111), "set 0x7 lies in no proper closed set but does not force"),
        ((0b1100, 0b0111), "set 0x7 lies in no proper closed set but does not force"),
    ],
    ids=["missing-forts", "derived-non-forts", "both"],
)
def test_fort_check_names_the_lowest_differing_mask(plant, flipped, detail):
    # the sets of three or more vertices of K4 force and no pair does, so
    # each pair lies in a proper closed set and no larger set does; a zf
    # bit flipped on claims a pair forces, and so misses a fort, a zf bit
    # flipped off claims a larger set does not, and so derives a closed set
    # that is none
    def corrupted(zf, coeffs):
        for f in flipped:
            zf ^= 1 << f
        return zf, coeffs

    plant(only_at(complete(4), corrupted))
    expected = [("fort-transversal", detail)]
    assert sweeps._check_one(frozenset({"fort-transversal"}), 4, 0b111111) == expected
    assert _on_the_batch_path({"fort-transversal"}, complete(4)) == [(0b111111, expected)]


def _naive_fort_bits(g):
    return sum(1 << mask_of(f) for f in naive_forts(g))


def _batch_definitions(n, base, b):
    """The batched definition table of one batch, split into its graphs'."""
    return _blocks(_batch_fort_definition(*_batch_edges(edge_pair_order(n), n, base, b)), n, b)


@pytest.mark.parametrize("width", [None, 3], ids=["real-width", "width-3"])
def test_fort_definition_bits_match_the_naive_forts(width):
    # one graph per table, and at width 3 the batched table of 2^3 graphs
    # with consecutive edge masks, read block by block
    rng = random.Random(width or polynomial._CHUNK_BITS)
    specs = [(n, emask) for n in range(1, 6) for emask in range(1 << comb(n, 2))]
    specs += [(n, rng.getrandbits(comb(n, 2))) for n in (7, 8, 9) for _ in range(5)]
    for n, emask in specs:
        g = graph_from_edge_mask(n, emask)
        if width is None or n < 3:
            assert _fort_definition_bits(g.adj, n) == _naive_fort_bits(g)
        else:
            base = emask >> width << width
            assert _batch_definitions(n, base, width)[emask - base] == _naive_fort_bits(g), (n, emask)


def test_batch_fort_definition_matches_the_naive_forts_on_every_graph():
    # every labeled graph with 3 <= n <= 6 at the sweep's widths, and
    # seeded batches of 2^10 graphs at n = 7
    batches = [(n, base, _batch_bits(n)) for n in range(3, 7)
               for base in range(0, 1 << comb(n, 2), 1 << _batch_bits(n))]
    rng = random.Random(707)
    batches += [(7, rng.randrange(0, 1 << 21, 1 << 10), 10) for _ in range(2)]
    for n, base, b in batches:
        got = _batch_definitions(n, base, b)
        assert got == [_naive_fort_bits(graph_from_edge_mask(n, base + g)) for g in range(1 << b)], (n, base)


def test_batch_duality_tables_match_the_per_graph_tables():
    # the definition over a batch's reversed graph planes, its upward
    # closure and their reversal hold each graph's own tables, in blocks of
    # reversed graph order and then, reversed, in graph order; with the
    # batch's zf bits, their XOR is each graph's diff: every batch with
    # n <= 6 at the sweep's widths (one graph at a time below n = 3) and
    # seeded batches of 2^10 graphs at n = 7, on the true zf bits and on
    # zf bits with seeded flips, where the duality fails
    batches = [(n, base, _batch_bits(n)) for n in range(1, 7)
               for base in range(0, 1 << comb(n, 2), 1 << _batch_bits(n))]
    rng = random.Random(3107)
    batches += [(7, rng.randrange(0, 1 << 21, 1 << 10), 10) for _ in range(3)]
    differ = 0
    for n, base, b in batches:
        pairs = edge_pair_order(n)
        ones, planes, nbrs = _batch_edges(pairs, n, base, b, reverse=True)
        definition = _batch_fort_definition(ones, planes, nbrs)
        up = _up_closure(definition, n, b)
        closed = _reversed(up, n + b)
        adjs = [_edge_mask_adj(pairs, n, base + g) for g in range(1 << b)]
        per_graph = [_fort_definition_bits(adj, n) for adj in adjs]
        assert _blocks(definition, n, b)[::-1] == per_graph, (n, base)
        assert list(_block_counts(definition, n, b))[::-1] == [d.bit_count() for d in per_graph], (n, base)
        assert _blocks(up, n, b)[::-1] == [_up_closure(d, n, 0) for d in per_graph], (n, base)
        assert _blocks(closed, n, b) == [_reversed(_up_closure(d, n, 0), n) for d in per_graph], (n, base)
        for flipped, zf in enumerate((_batch_tally(pairs, n, base, b)[0], rng.getrandbits(1 << n + b))):
            diff = closed ^ zf ^ ones
            want = [c ^ z ^ (1 << (1 << n)) - 1 for c, z in zip(_blocks(closed, n, b), _blocks(zf, n, b))]
            assert _blocks(diff, n, b) == want, (n, base)
            assert flipped or not diff, (n, base)
            differ += diff != 0
    assert differ == len(batches)  # every table of flipped bits


def _cover_of(fort_bits, n):
    """The flat cover kernel on one graph's 2^n-bit fort table (b = 0),
    closed upward."""
    return _batch_cover_sizes(_up_closure(fort_bits, n, 0), n, 0)[0]


def _fewest_meeting_all(n, sets):
    """Brute force: the fewest vertices that meet every mask in sets."""
    return next(size for size in range(n + 1) for combo in itertools.combinations(range(n), size)
                if all(s & sum(1 << v for v in combo) for s in sets))


def test_batch_cover_sizes_match_the_cover_size():
    # on the forts of whole batches, and on random families, which need not
    # be forts of anything; no block holds its empty mask.  Every block is
    # checked against brute-force hitting sets and against the b = 0 call
    rng = random.Random(2718)
    for n, b in [(3, 2), (4, 3), (5, 4), (6, 9), (7, 10)]:
        pairs = edge_pair_order(n)
        base = rng.randrange(0, 1 << len(pairs), 1 << b)
        ones, planes, nbrs = _batch_edges(pairs, n, base, b)
        forts = _batch_fort_definition(ones, planes, nbrs)
        families = [forts] + [rng.getrandbits(1 << n + b) & planes[rng.randrange(n)] for _ in range(3)]
        for family in families:
            blocks = _blocks(family, n, b)
            want = [_fewest_meeting_all(n, [f for f in range(1 << n) if block >> f & 1]) for block in blocks]
            assert _batch_cover_sizes(_up_closure(family, n, b), n, b) == want, (n, base)
            assert [_cover_of(block, n) for block in blocks] == want, (n, base)


def test_cover_size_matches_brute_force_hitting_sets():
    rng = random.Random(8128)
    for _ in range(300):
        n = rng.randint(1, 8)
        sets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 8))]
        assert _cover_of(sum(1 << s for s in set(sets)), n) == _fewest_meeting_all(n, sets), (n, sets)


def test_cover_size_is_the_zero_forcing_number_past_one_chunk():
    # at n = 13-14 the flag table spans several chunks of the lane layout;
    # the cover of the forts by definition is one flat table
    rng = random.Random(1314)
    graphs = [path(13), cycle(14)]
    graphs += [graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)) for n in (13, 13, 14, 14)]
    for g in graphs:
        assert _cover_of(_fort_definition_bits(g.adj, g.n), g.n) == zf_polynomial(g).zero_forcing_number()


def test_fort_bits_match_the_fort_list():
    # the sweep reads _fort_definition_bits and enumerate_forts lists its
    # set bits: the list must hold exactly those bits, in (size, mask)
    # order, and the bits must meet the fort duality with the zf bits, also
    # where the flag table spans several chunks, at n = 13 to 16
    graphs = [g for n in range(1, 7) for g in all_labeled_graphs(n)]
    rng = random.Random(1313)
    graphs += [graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)) for n in (13, 13, 13, 14, 14, 15, 15, 16, 16)]
    for g in graphs:
        fort_bits = _fort_definition_bits(g.adj, g.n)
        listed = enumerate_forts(g).forts
        assert sum(1 << f for f in listed) == fort_bits
        assert list(listed) == sorted(listed, key=lambda f: (f.bit_count(), f))
        assert _duality_diff(g) == 0


@pytest.mark.parametrize("n", [15, 16])
def test_exact_oracles_past_one_chunk_on_dense_and_disconnected_graphs(n):
    # relabeled threshold graphs, dense, against their closed form; and
    # relabeled disjoint unions of two seeded graphs against their sides,
    # whose forts come from the definition alone: a fort of a union is a
    # fort or empty on each side and not empty on both, and a set forces the
    # union iff it forces each side.  The last union is sparse enough that
    # zf_polynomial tallies it over its band order
    rng = random.Random(n)
    for _ in range(3):
        first = rng.choice("01")
        b = first + first + "".join(rng.choice("01") for _ in range(n - 3)) + "1"
        assert zf_polynomial(shuffle_labels(threshold_from_string(b), rng)) == poly_threshold(b), b
    unions = [[seeded_graph(rng, m, p) for m in (n // 2, n - n // 2)] for p in (0.25, 0.5)]
    unions.append([path(n - 14), cycle(14)])
    for sides in unions:
        g = shuffle_labels(disjoint_union(*sides), rng)
        polys = [zf_polynomial(side, engine="sweep") for side in sides]
        assert zf_polynomial(g) == polys[0] * polys[1]
        f1, f2 = (_fort_definition_bits(side.adj, side.n).bit_count() for side in sides)
        assert len(enumerate_forts(g).forts) == (f1 + 1) * (f2 + 1) - 1
        assert min_fort_cover(g)[0] == sum(poly.zero_forcing_number() for poly in polys)
    assert polynomial._band_order(g.adj, n) is not None


def test_fort_family_sorted_by_size_then_mask():
    fam = enumerate_forts(cycle(5))
    key = [(f.bit_count(), f) for f in fam.forts]
    assert key == sorted(key)


def test_fort_supersets_need_not_be_forts():
    # a wrong pruning shortcut would assume upward closure
    g = star(4)
    assert is_fort(g, mask_of([0, 1]))
    assert not is_fort(g, mask_of([0, 1, 3]))


def test_min_fort_cover_examples():
    size, witness = min_fort_cover(path(3))
    assert size == 1 and witness == 0b001  # {0} is the lex-smallest witness
    assert min_fort_cover(complete(4))[0] == 3
    assert min_fort_cover(cycle(5))[0] == 2


def test_min_fort_cover_witness_hits_every_fort():
    for g in (path(5), cycle(6), complete(4), star(5), empty(3)):
        size, witness = min_fort_cover(g)
        assert witness.bit_count() == size
        assert all(witness & f for f in enumerate_forts(g).forts)


def test_min_fort_cover_witness_is_lex_min():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            size, witness = min_fort_cover(g)
            forts = enumerate_forts(g).forts
            candidates = [
                mask
                for mask in range(1 << n)
                if mask.bit_count() == size and all(mask & f for f in forts)
            ]
            best = min(candidates, key=lambda m: vertices_of(m))
            assert witness == best


def test_min_fort_cover_refuses_a_witness_that_does_not_force(monkeypatch):
    # the cover size is read off the coefficients and the witness off the zf
    # bits; hiding every zf bit of size Z leaves that size with no witness
    def no_minimum_sets(adj, n):
        zf, coeffs = _closure_tally(adj, n)
        k = _lane_width(n)
        zf = _joined(zf, n)
        z = next(i for i, c in enumerate(coeffs) if c)
        for mask in range(1 << n):
            if mask.bit_count() == z:
                zf &= ~(1 << mask)
        return _blocks(zf, k, n - k), coeffs

    monkeypatch.setattr(polynomial, "_closure_tally", no_minimum_sets)
    for g in (path(4), cycle(5), complete(4), star(5), graph_from_edge_mask(6, 0b101101011010110)):
        with pytest.raises(RuntimeError, match="tables disagree"):
            min_fort_cover(g)


def test_min_cover_size_equals_zero_forcing_number_exhaustive():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            size, _ = min_fort_cover(g)
            assert size == naive_min_cover_size(g)
            assert size == zf_polynomial(g).zero_forcing_number()


def test_min_cover_size_equals_zero_forcing_number_random():
    # the size is read off the flag table; the reference is the cover of
    # the forts built from the definition alone
    rng = random.Random(424242)
    for _ in range(25):
        n = rng.randint(8, 12)
        g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        assert min_fort_cover(g)[0] == _cover_of(_fort_definition_bits(g.adj, n), n)


def test_every_zfs_hits_every_fort_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            forts = enumerate_forts(g).forts
            for mask in range(1 << n):
                if is_zero_forcing_set(g, mask):
                    assert all(mask & f for f in forts)


def test_fort_count_bound_examples():
    assert fort_count_bound_holds(path(3)) == (2, 2, True)
    assert fort_count_bound_holds(complete(3)) == (4, 4, True)
    lhs, rhs, ok = fort_count_bound_holds(cycle(4))
    assert (lhs, rhs, ok) == (7, 16 - 9, True)


def test_fort_count_bound_random():
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        lhs, rhs, ok = fort_count_bound_holds(g)
        assert ok and lhs <= rhs


def test_small_fort_coefficient_bound_applicable():
    rows = small_fort_coefficient_bound(path(3))
    assert rows is not None
    assert all(ok for _, _, _, ok in rows)
    rows = small_fort_coefficient_bound(complete(3))
    assert all(ok for _, _, _, ok in rows)


def test_small_fort_coefficient_bound_not_applicable():
    # every fort of the 4-path has size 3 while Z + 1 = 2
    assert small_fort_coefficient_bound(path(4)) is None


def _small_fort_rows(g, fort_sizes):
    """The bound's rows with the smallest fort taken from an explicit fort list."""
    if not fort_sizes:
        return None
    coeffs = zf_polynomial(g).coeffs
    z = next(i for i, c in enumerate(coeffs) if c)
    if min(fort_sizes) > z + 1:
        return None
    n = g.n
    rows = []
    for i in range(1, n + 1):
        bound = comb(n, i) - (comb(n - i - 1, i) if i < n else 0)
        rows.append((i, coeffs[i], bound, coeffs[i] <= bound))
    return rows


def test_small_fort_coefficient_bound_matches_the_fort_lists():
    # the smallest fort is read off the coefficients; the reference takes it
    # from naive_forts for every labeled graph with n <= 5, and from
    # enumerate_forts on seeded graphs with n = 6-9
    outcomes = set()
    assert small_fort_coefficient_bound(empty(0)) is None
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            rows = small_fort_coefficient_bound(g)
            assert rows == _small_fort_rows(g, [len(f) for f in naive_forts(g)]), g.edges()
            outcomes.add(rows is None)
    rng = random.Random(6789)
    for _ in range(60):
        n = rng.randint(6, 9)
        g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
        rows = small_fort_coefficient_bound(g)
        assert rows == _small_fort_rows(g, [f.bit_count() for f in enumerate_forts(g).forts]), (n, g.edges())
        outcomes.add(rows is None)
    assert outcomes == {True, False}
