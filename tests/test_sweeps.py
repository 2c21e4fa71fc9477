import fnmatch
import itertools
import multiprocessing
import random
import re
from math import comb

import pytest

import zfpoly
from conftest import clear_memos, edge_mask, everywhere, level_preserving_swap, needs_fork, only_at
from oracles import naive_consecutive_counts, naive_is_zfs, threshold_string_records
from zfpoly import analysis, closed_forms, parallel, polynomial, sweeps
from zfpoly.closed_forms import poly_complete, poly_cycle, poly_multipartite, poly_path, poly_wheel
from zfpoly.graphs import (complete, complete_multipartite, cycle, cycle_plus_chord, disjoint_union, empty,
                           from_edge_list, graph_from_edge_mask, is_isomorphic, path, star, wheel)
from zfpoly.parallel import parallel_map
from zfpoly.polynomial import (ZfPolynomial, _batch_tally, _block_bases, _closure_tally, _component_product,
                               zf_polynomial)
from zfpoly.sweeps import (
    CHECK_KEYS,
    COEFFICIENT_CHECKS,
    CONJECTURE_CHECKS,
    FACT_FREE_CHECKS,
    SUITES,
    SWEEP_SUITE_CHECKS,
    canonical_connected_strings,
    exhaustive_sweep,
    expected_cycle_class,
    random_graph_specs,
    random_sweep,
    run_closed_forms_suite,
    run_suite,
    verify_cycle_class,
)


def test_exhaustive_sweep_all_checks_pass_small():
    count, records = exhaustive_sweep(CHECK_KEYS, max_n=5)
    assert count == 2 + 8 + 64 + 1024 + 1  # n = 1..5
    assert records == []


def test_exhaustive_sweep_rejects_unknown_check():
    with pytest.raises(ValueError):
        exhaustive_sweep({"spectral"}, max_n=3)


def test_random_sweep_rejects_unknown_check():
    with pytest.raises(ValueError):
        random_sweep({"spectral"}, [(5, 3)])


@pytest.mark.parametrize("spec", [(3, 8), (3, -1), (0, 0), (-2, 0)],
                         ids=["mask-past-the-pairs", "negative-mask", "no-vertices", "negative-order"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_random_sweep_rejects_a_bad_spec_before_any_work(pool_starts, spec, jobs):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        random_sweep(CHECK_KEYS, [(3, 7), spec], jobs=jobs)
    assert pool_starts == []


def test_random_sweep_specs_need_no_enumeration_cap(monkeypatch):
    # the sweep kernel reads raw adjacency, so `check --suite ip` runs its
    # n = 8-14 specs under any ZFPOLY_MAX_N
    monkeypatch.setenv("ZFPOLY_MAX_N", "1")
    assert random_sweep({"ip"}, [(1, 0), (3, 7), (9, (1 << 36) - 1)]) == (3, [])


def test_exhaustive_sweep_rejects_large_order():
    with pytest.raises(ValueError):
        exhaustive_sweep({"hall"}, max_n=8)


@pytest.mark.parametrize("max_n", [0, -3])
def test_exhaustive_sweep_rejects_order_below_one(max_n):
    with pytest.raises(ValueError, match=f"got {max_n}"):
        exhaustive_sweep({"hall"}, max_n=max_n)


def test_parallel_map_rejects_jobs_below_one():
    with pytest.raises(ValueError):
        list(parallel_map(abs, [1, 2], 0))
    assert list(parallel_map(abs, [-1, -2], 1)) == [1, 2]


@pytest.fixture
def pool_starts(monkeypatch):
    """Records the arguments of every process pool parallel_map starts, and
    holds each pool until the test ends, so that no pool's processes end
    only because the pool was collected."""
    starts, pools = [], []
    real_pool = parallel.Pool

    def counting_pool(*args, **kwargs):
        starts.append(args)
        pools.append(real_pool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(parallel, "Pool", counting_pool)
    return starts


def test_parallel_sweep_is_deterministic(pool_starts):
    solo = exhaustive_sweep({"extremal", "ip"}, max_n=6, jobs=1)
    assert pool_starts == []
    duo = exhaustive_sweep({"extremal", "ip"}, max_n=6, jobs=2)
    assert pool_starts == [(2,)]  # order 6 only: 32 batches, 16 per process; orders 1-5 are a batch or two
    assert solo == duo


def test_a_run_scope_maps_every_pooled_call_in_one_pool_and_joins_it(pool_starts):
    # a nested scope is part of the outer one; each pool process is gone
    # when the outer scope exits, also when a worker raised
    items = list(range(-40, 0))
    with parallel.run_scope():
        assert list(parallel_map(abs, items, 2)) == [-i for i in items]
        with parallel.run_scope():
            assert list(parallel_map(abs, items[:32], 2)) == [-i for i in items[:32]]
        assert len(multiprocessing.active_children()) == 2
    assert pool_starts == [(2,)]
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="'x'"), parallel.run_scope():
        list(parallel_map(int, ["1"] * 40 + ["x"], 2))
    assert pool_starts == [(2,), (2,)]
    assert multiprocessing.active_children() == []


def test_a_suite_run_forks_one_pool_and_leaves_no_process(pool_starts):
    # at jobs 2, order 6 (32 batches), the 100 ip specs and the 500
    # conjecture specs each pool, all in one pool forked on first need; at
    # jobs 1 no pool starts, and the reports agree
    duo = run_suite("all", max_n=6, jobs=2)
    assert pool_starts == [(2,)]
    assert multiprocessing.active_children() == []
    solo = run_suite("all", max_n=6, jobs=1)
    assert pool_starts == [(2,)]
    assert multiprocessing.active_children() == []
    assert {**duo, "elapsed_s": 0, "jobs": 1} == {**solo, "elapsed_s": 0}


@pytest.fixture
def narrow_batches(monkeypatch):
    """narrow_batches() narrows every order's batches to 2^3 graphs, so that
    order 5 has 128 of them, 16 for each of 8 processes, and pools."""
    return lambda: monkeypatch.setattr(polynomial, "BATCH_BITS", 3)


@pytest.fixture
def serial_pool(monkeypatch):
    """Records (processes, order) of every pool parallel_map starts, in a
    pool that maps here, so a test sees where pools start without forking."""
    starts = []

    class SerialPool:
        def __init__(self, processes):
            self.processes = processes

        def terminate(self):
            pass

        def join(self):
            pass

        def imap(self, worker, items, chunksize):
            starts.append((self.processes, worker.args[1]))  # partial(_check_batch, checks, n, b)
            return map(worker, items)

    monkeypatch.setattr(parallel, "Pool", SerialPool)
    return starts


def test_the_batch_width_depends_on_the_order_alone(monkeypatch, serial_pool):
    # the batches of every order at every --jobs from 1 to 64, and a pool
    # only where each process gets BATCHES_PER_JOB = 16 of them
    widths = {1: 0, 2: 0, 3: 3, 4: 6, 5: 10, 6: 10, 7: 10}
    assert {n: polynomial._batch_bits(n) for n in widths} == widths
    want = [(n, widths[n], base) for n in widths for base in range(0, 1 << comb(n, 2), 1 << widths[n])]
    assert len(want) == 1 + 2 + 1 + 1 + 1 + 32 + 2048
    mapped = []
    monkeypatch.setattr(sweeps, "_check_batch", lambda checks, n, b, base: mapped.append((n, b, base)) or [])
    for jobs in range(1, 65):
        mapped.clear()
        serial_pool.clear()
        assert exhaustive_sweep(CHECK_KEYS, max_n=7, jobs=jobs) == (sum(1 << comb(n, 2) for n in widths), [])
        assert mapped == want, jobs
        pooled = [6, 7] if jobs == 2 else [7] if jobs > 2 else []  # 32 and 2,048 batches
        assert serial_pool == [(jobs, n) for n in pooled], jobs


@pytest.fixture
def flipped_zf_bits(plant):
    """A fault in the flag table that both producers hand on: every seventh
    graph flips the zf bit of one proper mask, so its table breaks the fort
    duality, which fort-transversal and maybe reversal report."""
    def flipped(n, emask, table):
        zf, coeffs = table
        return (zf ^ 1 << emask % ((1 << n) - 1), coeffs) if emask % 7 == 0 else table

    plant(flipped)


def test_wide_pools_still_start_at_orders_five_and_six(narrow_batches, serial_pool, flipped_zf_bits):
    # with batches of 2^3 graphs, orders 5 and 6 give each of 8 processes
    # 16 of them, and the records of a planted fault do not depend on the
    # batch width
    solo = exhaustive_sweep(CHECK_KEYS, max_n=6, jobs=1)
    narrow_batches()
    wide = exhaustive_sweep(CHECK_KEYS, max_n=6, jobs=8)
    assert len(wide[1]) >= (1 << 15) // 7
    assert wide == solo
    assert serial_pool == [(8, 5), (8, 6)]  # order 4 has 8 batches, under 8 * 16


def test_exhaustive_sweep_reports_a_fault_in_the_batch_tally(plant):
    # in the batch of the 5-path 0-1-2-3-4: {0} forces along the path, so
    # clearing the zf bit of its chain terminal {4} fails reversal, and
    # leaves {4}, which lies in no proper closed set, claimed not to force
    target = edge_mask(path(5))
    plant(only_at(path(5), lambda zf, coeffs: (zf ^ 1 << 0b10000, coeffs)))
    _, records = exhaustive_sweep(CHECK_KEYS, max_n=5)
    bad = sweeps._check_one(frozenset(CHECK_KEYS), 5, target)
    assert [check for check, _ in bad] == ["fort-transversal", "reversal"]
    assert records == [sweeps._record(check, 5, target, detail) for check, detail in bad]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_exhaustive_sweep_equals_a_loop_over_single_graphs(pool_starts, flipped_zf_bits, narrow_batches,
                                                            jobs):
    graphs = [(n, emask) for n in range(1, 6) for emask in range(1 << comb(n, 2))]
    looped = [sweeps._record(check, n, emask, detail) for n, emask in graphs
              for check, detail in sweeps._check_one(frozenset(CHECK_KEYS), n, emask)]
    assert len(looped) >= len(graphs) // 7
    if jobs == 2:
        narrow_batches()  # else each order up to 5 is one batch, mapped here
    assert exhaustive_sweep(CHECK_KEYS, max_n=5, jobs=jobs) == (len(graphs), looped)
    assert len(pool_starts) == (1 if jobs == 2 else 0)  # order 5


def _one_more_set(zf, coeffs):
    return zf, coeffs[:-1] + [coeffs[-1] + 1]


def _z_one_lower(zf, coeffs):
    z = next(i for i, c in enumerate(coeffs) if c)
    return zf, coeffs[:z - 1] + [coeffs[z], 0] + coeffs[z + 1:]


def _planted(coeffs):
    return lambda zf, _: (zf, list(coeffs))


def _x_doubled(zf, coeffs):
    return zf, [c << i for i, c in enumerate(coeffs)]


# One planted fault per check, so that no one-line weakening can switch a
# check off unnoticed: a graph, a corruption of its flag table and the
# records it must give, on the per-graph and on the batch path.
PLANTED_FAULTS = {
    # one more set of size n: the 4-path then has two
    "extremal": (path(4), _one_more_set, [("extremal", "top coefficient 2 != 1")]),
    # the tally loses V, the one set of size n
    "zero-range": (cycle(5), lambda zf, coeffs: (zf, coeffs[:-1] + [0]),
                   [("zero-range", "zero coefficient above the first nonzero index 2")]),
    # every single vertex claimed to force the 3-path; every minimum set
    # forces only in the complete and the empty graph
    "all-min-sets": (path(3), _planted([0, 3, 3, 1]),
                     [("all-min-sets", "all-minimum-sets True vs complete/empty False")]),
    # the graph's own table gains a top set: 2 against its components' 1 * 1
    "multiplicativity": (from_edge_list(5, [(0, 4), (1, 2), (2, 3)]), _one_more_set,
                         [("multiplicativity", "component product differs from direct enumeration")]),
    # n = 5 compares coefficients 1-2 and 2-3 (the 5-cycle has 0, 0, 5, 10, 5, 1);
    # only the top pair decreases
    "hall": (cycle(5), _planted([0, 0, 11, 10, 5, 1]),
             [("hall", "coefficients [0, 0, 11, 10, 5, 1] decrease somewhere below n/2")]),
    # the path's coefficients do not exceed the path bound, but a cycle is no path
    "ham-bound": (cycle(5), _planted(poly_path(5).coeffs),
                  [("ham-bound", "path-bound equality profile does not single out the path")]),
    "recognizability": (cycle(4), _planted(poly_complete(4).coeffs),
                        [("recognizability", "complete polynomial does not characterize complete graphs")]),
    # {0, 1} forces the 5-path 0-1-2-3-4 and {1, 3} does not; swapped, every coefficient stays
    "fort-transversal": (path(5), level_preserving_swap,
                         [("fort-transversal", "set 0x3 lies in no proper closed set but does not force")]),
    # the empty graph meets the bound exactly, 2^4 - 1 forts and as many
    # sets that do not force; one more zero forcing set makes one fort too many
    "fort-count-bound": (empty(4), _one_more_set, [("fort-count-bound", "15 forts > 2^n - 2")]),
    "ip": (cycle(5), _z_one_lower, [("ip", "no fort cover of size 1, the zero forcing number")]),
    "unimodality": (cycle(5), _planted([0, 0, 5, 3, 5, 1]),
                    [("unimodality", "coefficients [0, 0, 5, 3, 5, 1] are not unimodal")]),
    # the empty set claimed to force the 4-cycle: above the path's 0 at size 0 only
    "path-bound": (cycle(4), _planted([1, 0, 4, 4, 1]),
                   [("path-bound", "coefficients [1, 0, 4, 4, 1] exceed the path's")]),
    # {0} forces along the 5-path, whose chain terminal {4} then does not force
    "reversal": (path(5), lambda zf, coeffs: (zf ^ 1 << 0b10000, coeffs),
                 [("reversal", "reversed chains of 0x1 do not force")]),
}


@pytest.mark.parametrize("check", sorted(PLANTED_FAULTS))
def test_a_planted_fault_gives_the_same_records_on_both_paths(plant, check):
    g, corrupt, expected = PLANTED_FAULTS[check]
    n, target = g.n, edge_mask(g)
    plant(only_at(g, corrupt))
    checks = frozenset({check})
    assert sweeps._check_one(checks, n, target) == expected
    b = 3
    assert sweeps._check_batch(checks, n, b, target >> b << b) == [(target, expected)]


def test_every_check_has_a_planted_fault():
    assert set(PLANTED_FAULTS) == set(CHECK_KEYS)


@pytest.mark.parametrize("check", sorted(PLANTED_FAULTS))
def test_a_planted_fault_changes_no_other_graph_of_its_batch(plant, check):
    # the fault sits on a labeling of the row's graph whose batch of 2^3
    # graphs also holds a graph with its true coefficients (the complete
    # and the empty graph have no other labeling and no such graph), and
    # still gives records there; the batch path, which memoizes facts by
    # coefficient vector, must give every graph the per-graph path's records
    g, corrupt, _ = PLANTED_FAULTS[check]
    n, b, every = g.n, 3, frozenset(CHECK_KEYS)
    labelings = sorted({edge_mask(from_edge_list(n, [(p[u], p[v]) for u, v in g.edges()]))
                        for p in itertools.permutations(range(n))})
    for target in labelings:
        masks = range(target >> b << b, (target >> b << b) + (1 << b))
        true = {e: _closure_tally(graph_from_edge_mask(n, e).adj, n)[1] for e in masks}
        twins = [e for e in masks if e != target and true[e] == true[target]]
        plant(only_at(graph_from_edge_mask(n, target), corrupt))
        looped = [(e, bad) for e in masks if (bad := sweeps._check_one(every, n, e))]
        if twins and target in dict(looped):
            break
    assert twins or len(labelings) == 1
    assert target in dict(looped)
    assert sweeps._check_batch(every, n, b, masks.start) == looped


@needs_fork
@pytest.mark.parametrize("check", sorted(PLANTED_FAULTS))
def test_a_planted_fault_gives_the_same_failures_at_jobs_one_and_two(plant, pool_starts, narrow_batches, check):
    # with batches of 2^3 graphs order 5 pools at jobs 2, so a fault on a
    # graph of order 5 reaches the workers of the run's one pool, which
    # fork after the plant
    g, corrupt, expected = PLANTED_FAULTS[check]
    plant(only_at(g, corrupt))
    narrow_batches()
    solo, duo = (run_suite("all", max_n=5, jobs=jobs) for jobs in (1, 2))
    assert pool_starts == [(2,)]
    assert multiprocessing.active_children() == []
    assert (duo["failures"], duo["warnings"]) == (solo["failures"], solo["warnings"])
    at_fault = [(r["check"], r["detail"]) for r in solo["failures"] + solo["warnings"]
                if (r["n"], r["graph"]) == (g.n, edge_mask(g))]
    assert set(expected) <= set(at_fault)


def test_component_tallies_outlive_one_batch_until_a_sweep_starts():
    # the order tables and the products of the non-isolated parts
    checks = frozenset({"multiplicativity"})
    memos = (sweeps._order_counts, sweeps._part_product)
    clear_memos()
    sweeps._check_batch(checks, 5, 3, 0)  # edges 3 to 9 absent: disconnected graphs
    filled = [memo.cache_info() for memo in memos]
    assert all(info.currsize > 0 for info in filled)
    sweeps._check_batch(checks, 5, 3, 0)
    assert [memo.cache_info().misses for memo in memos] == [info.misses for info in filled]  # all found again
    assert exhaustive_sweep({"extremal"}, max_n=1) == (1, [])
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def test_coefficient_facts_outlive_one_batch_until_a_sweep_starts():
    checks = frozenset({"hall"})
    sweeps._facts.cache_clear()
    sweeps._check_batch(checks, 5, 3, 0)
    filled = sweeps._facts.cache_info()
    assert 0 < filled.currsize < 8  # the batch's 8 graphs share coefficient vectors
    sweeps._check_batch(checks, 5, 3, 0)
    assert sweeps._facts.cache_info().misses == filled.misses  # every vector found again
    assert exhaustive_sweep({"extremal"}, max_n=1) == (1, [])  # a check that reads no facts
    assert sweeps._facts.cache_info().currsize == 0


@pytest.mark.parametrize("corrupt", [_one_more_set, _x_doubled], ids=["one-more-set", "x-doubled"])
def test_a_plant_after_the_component_memo_filled_reaches_the_batch_path(plant, corrupt):
    # Z(G; 2x) is still the product of its components' Z(H; 2x), so with x
    # doubled no graph fails multiplicativity, unless an order table or a
    # component product from before the plant is read
    checks, n, b = frozenset({"multiplicativity"}), 5, 3
    bases = range(0, 1 << comb(n, 2), 1 << b)
    clear_memos()
    for base in bases:
        assert sweeps._check_batch(checks, n, b, base) == []
    assert sweeps._order_counts.cache_info().currsize > 0 and sweeps._part_product.cache_info().currsize > 0
    plant(everywhere(corrupt))
    looped = [(e, bad) for e in range(1 << comb(n, 2)) if (bad := sweeps._check_one(checks, n, e))]
    assert [failed for base in bases for failed in sweeps._check_batch(checks, n, b, base)] == looped
    assert bool(looped) == (corrupt is _one_more_set)


def test_the_batch_product_is_the_product_of_each_components_own_table():
    # every disconnected labeled graph with n <= 6, and those of two seeded
    # batches of 2^10 graphs at n = 7: the product read off the order tables,
    # memoized by the non-isolated part, against each component's own flag
    # table (_check_one's oracle)
    graphs = [(n, emask) for n in range(2, 7) for emask in range(1 << comb(n, 2))]
    rng = random.Random(3434)
    graphs += [(7, emask) for base in (rng.randrange(0, 1 << 21, 1 << 10) for _ in range(2))
               for emask in range(base, base + (1 << 10))]
    clear_memos()
    disconnected = 0
    for n, emask in graphs:
        adj = list(graph_from_edge_mask(n, emask).adj)
        active, _, _, connected = analysis._structure(adj, n)
        if not connected:
            disconnected += 1
            own = _component_product(adj, n, sweeps._component_tally)
            assert sweeps._batch_product(n, emask, active) == tuple(own), (n, emask)
    assert disconnected > 1 + 4 + 26 + 296 + 6064  # the disconnected labeled graphs of orders 2 to 6, then n = 7


def test_a_plant_on_the_table_of_k1_reaches_every_isolated_vertex_on_both_paths(plant):
    # K1 claimed to have two zero forcing sets of size 1: every product with
    # an isolated vertex doubles, so exactly the order-5 graphs with an
    # isolated vertex fail, on both paths
    checks, n, b = frozenset({"multiplicativity"}), 5, 3
    plant(only_at(empty(1), _one_more_set))
    looped = [(e, bad) for e in range(1 << comb(n, 2)) if (bad := sweeps._check_one(checks, n, e))]
    assert [failed for base in range(0, 1 << comb(n, 2), 1 << b)
            for failed in sweeps._check_batch(checks, n, b, base)] == looped
    isolated = [e for e in range(1 << comb(n, 2))
                if analysis._structure(graph_from_edge_mask(n, e).adj, n)[0] != (1 << n) - 1]
    assert [e for e, _ in looped] == isolated and len(isolated) == 1024 - 768  # 768 have no isolated vertex


def test_the_plant_seam_empties_every_memo_that_reads_a_table(plant):
    # every process memo of sweeps but the per-order constants and the
    # gather runs, which read no flag table
    memos = {name: memo for name, memo in vars(sweeps).items()
             if hasattr(memo, "cache_clear") and memo.__module__ == sweeps.__name__}
    assert exhaustive_sweep(CHECK_KEYS, 5) == (1099, [])
    assert all(memo.cache_info().currsize for memo in memos.values())
    plant(everywhere(lambda *table: table))
    assert {name for name, memo in memos.items() if memo.cache_info().currsize} == {"_context", "_pair_runs"}


def test_a_table_with_no_nonzero_coefficient_files_a_record_on_both_paths(plant):
    # the zero-range row's fault, the tally losing V, on every order-5
    # table leaves the edgeless graph, whose only zero forcing set is V, no
    # nonzero coefficient: every check set that finds the facts files
    # zero-range's record for it, in any suite, the checks that read z skip
    # it, and the sweep goes on
    _, corrupt, _ = PLANTED_FAULTS["zero-range"]
    plant(lambda n, emask, table: corrupt(*table) if n == 5 else table)
    record = ("zero-range", "no nonzero coefficient")
    every = frozenset(CHECK_KEYS)
    bad = sweeps._check_one(every, 5, 0)
    assert [check for check, _ in bad] == ["extremal", "zero-range", "multiplicativity"] and record in bad
    assert sweeps._check_batch(every, 5, 3, 0)[0] == (0, bad)
    for check in sorted(every - FACT_FREE_CHECKS):
        assert sweeps._check_one(frozenset({check}), 5, 0) == [record], check
        assert sweeps._check_batch(frozenset({check}), 5, 3, 0)[:1] == [(0, [record])], check
    _, records = exhaustive_sweep(CHECK_KEYS, 5)
    assert [r for r in records if r["detail"] == record[1]] == [sweeps._record("zero-range", 5, 0, record[1])]


def test_reversal_names_the_lowest_failing_minimum_set_on_both_paths(plant):
    # the 5-cycle without the zero forcing bit of {1, 2}: its lowest minimum
    # set {0, 1} ends its chains at {3, 4} and passes, and {3, 4}, whose
    # chains end at {1, 2}, fails
    g = cycle(5)
    n, target = g.n, edge_mask(g)
    plant(only_at(g, lambda zf, coeffs: (zf ^ 1 << 0b00110, coeffs)))
    expected = [("reversal", "reversed chains of 0x18 do not force")]
    assert sweeps._check_one(frozenset({"reversal"}), n, target) == expected
    assert sweeps._check_batch(frozenset({"reversal"}), n, 3, target >> 3 << 3) == [(target, expected)]


def test_coefficient_checks_read_only_the_coefficients(plant):
    # one coefficient vector beside the 5-cycle's own table, then beside
    # garbage in every other argument: the coefficient-only checks give the
    # same records, and each other check, run with them, tells the two calls
    # apart, so adding a check that reads the graph to COEFFICIENT_CHECKS
    # fails here
    coeffs = [0, 0, 11, 0, 5, 1]  # a zero above z = 2, a fall below n/2 and then a rise, above the path's 9
    g = cycle(5)
    n, emask = g.n, edge_mask(g)
    plant(only_at(g, _planted(coeffs)))
    records = sweeps._check_one(COEFFICIENT_CHECKS, n, emask)
    assert [check for check, _ in records] == ["zero-range", "hall", "unimodality", "path-bound"]
    every_set = (1 << (1 << n)) - 1
    # K5's edges, every set but V forcing, 2^n - 1 forts of the table, which
    # differ from the definition's at every nonempty set, a cover of size 0,
    # no minimum set whose reversal forces, no graph in the cycle class and
    # a component product of [2]
    garbage = (sweeps._context(n).full_edges, every_set ^ 1 << (1 << n) - 1, (1 << n) - 1, coeffs,
               (0, 0, True, False), every_set ^ 1, 0, lambda minimum: minimum, lambda emask: False,
               lambda emask, active: [2], sweeps._coefficient_facts)
    assert sweeps._check_table(COEFFICIENT_CHECKS, n, *garbage) == records
    for check in sorted(set(CHECK_KEYS) - COEFFICIENT_CHECKS):
        checks = COEFFICIENT_CHECKS | {check}
        assert sweeps._check_table(checks, n, *garbage) != sweeps._check_one(checks, n, emask), check


@pytest.mark.parametrize("check", CHECK_KEYS)
def test_only_the_fact_free_checks_ignore_the_coefficient_facts(plant, monkeypatch, check):
    # each check's planted fault, run beside zero-range so that the facts
    # are found, under facts that are each wrong: only a check of
    # FACT_FREE_CHECKS keeps its records, so adding one that reads a fact
    # there fails here; run alone, a fact-free check never asks for them
    g, corrupt, expected = PLANTED_FAULTS[check]
    n, emask = g.n, edge_mask(g)
    plant(only_at(g, corrupt))
    real = sweeps._coefficient_facts

    def lying(checks, n, coeffs):
        z, _, exceeds, every_min_forces, _, *equal = real(checks, n, coeffs)
        return (z + 1, (), not exceeds, not every_min_forces, 0, *(not e for e in equal))

    monkeypatch.setattr(sweeps, "_coefficient_facts", lying)
    records = sweeps._check_one(frozenset({check, "zero-range"}), n, emask)
    assert ([record for record in records if record[0] == check] == expected) == (check in FACT_FREE_CHECKS)
    if check in FACT_FREE_CHECKS:
        monkeypatch.setattr(sweeps, "_coefficient_facts", lambda *args: pytest.fail("the facts were found"))
        assert sweeps._check_one(frozenset({check}), n, emask) == expected
        assert sweeps._check_batch(frozenset({check}), n, 3, emask >> 3 << 3) == [(emask, expected)]


def test_the_batch_path_reads_the_structure_kernel(monkeypatch):
    # one more non-isolated vertex in every graph: each graph then fails
    # the size n-1 coefficient, so a batch path that stops reading the
    # kernel fails here
    real_structure = sweeps._batch_structure

    def one_more_active(pairs, n, base, b):
        return [(active | 1 << n, *rest) for active, *rest in real_structure(pairs, n, base, b)]

    monkeypatch.setattr(sweeps, "_batch_structure", one_more_active)
    count, records = exhaustive_sweep({"extremal"}, 5)
    failed = [(r["n"], r["graph"]) for r in records if r["detail"].startswith("size n-1: ")]
    assert failed == [(n, emask) for n in range(1, 6) for emask in range(1 << comb(n, 2))]
    assert len(failed) == count


def test_check_one_tests_for_a_path_once(monkeypatch):
    # the path flag and connectivity come from one _structure call per graph
    calls = []
    real = sweeps._structure
    monkeypatch.setattr(sweeps, "_structure", lambda adj, n: calls.append(n) or real(adj, n))
    emasks = (0, edge_mask(path(7)), edge_mask(cycle(7)), (1 << 21) - 1, 0b101101011010110100101)
    for emask in emasks:
        assert sweeps._check_one(frozenset(CHECK_KEYS), 7, emask) == ()
    assert calls == [7] * 5
    # and what the extremal check compares is that call's row
    monkeypatch.setattr(sweeps, "_structure", lambda adj, n: (real(adj, n)[0] | 1 << n, *real(adj, n)[1:]))
    for emask in emasks:
        assert [detail[:10] for _, detail in sweeps._check_one(frozenset({"extremal"}), 7, emask)] == ["size n-1: "]


def test_check_one_builds_the_adjacency_once_on_a_disconnected_graph(monkeypatch):
    # multiplicativity reads the adjacency _check_one has built
    calls = []
    real = sweeps._edge_mask_adj
    monkeypatch.setattr(sweeps, "_edge_mask_adj", lambda pairs, n, e: calls.append(e) or real(pairs, n, e))
    for g in (empty(5), from_edge_list(5, [(0, 4), (1, 2), (2, 3)]), disjoint_union(path(3), cycle(4))):
        calls.clear()
        assert sweeps._check_one(frozenset(CHECK_KEYS), g.n, edge_mask(g)) == ()
        assert calls == [edge_mask(g)]


def _without_the_last_minimum_set(zf, coeffs):
    z = next(i for i, c in enumerate(coeffs) if c)
    minimum = [m for m in range(zf.bit_length()) if zf >> m & 1 and m.bit_count() == z]
    return (zf ^ 1 << minimum[-1] if len(minimum) > 1 else zf), coeffs


def test_batched_reversal_fails_on_the_masks_of_the_per_graph_path(plant):
    # with its last minimum zero forcing set taken out of the zf bits, a
    # graph fails reversal from the first minimum set whose chains end there
    plant(everywhere(_without_the_last_minimum_set))
    graphs = [(n, emask) for n in range(1, 7) for emask in range(1 << comb(n, 2))]
    looped = [sweeps._record(check, n, emask, detail) for n, emask in graphs
              for check, detail in sweeps._check_one(frozenset({"reversal"}), n, emask)]
    assert len(looped) > 1000
    assert exhaustive_sweep({"reversal"}, max_n=6) == (len(graphs), looped)


@needs_fork
def test_random_sweep_records_do_not_depend_on_jobs(plant, pool_starts):
    # every graph fails zero-range and ip, some extremal too, so the
    # comparison covers the order of records within and across graphs
    plant(everywhere(_z_one_lower))
    specs = random_graph_specs(40, 5, 8, seed=4)
    checks = {"extremal", "zero-range", "ip"}
    solo = random_sweep(checks, specs, jobs=1)
    duo = random_sweep(checks, specs, jobs=2)
    assert len(pool_starts) == 1
    assert len(solo[1]) >= 2 * len(specs)
    assert solo == duo


def _negated_on_odd_lengths(monkeypatch):
    """Negate the characterization table of every string of odd length, in
    the one kernel behind the suite's batches and the per-string oracle."""
    real_lanes = closed_forms._threshold_lanes

    def negated(symbols, ones, planes):
        bits = real_lanes(symbols, ones, planes)
        return bits ^ ones if len(symbols) % 2 else bits

    monkeypatch.setattr(closed_forms, "_threshold_lanes", negated)


@needs_fork
def test_closed_forms_suite_records_do_not_depend_on_jobs(monkeypatch, pool_starts):
    # at max_n 12 the threshold strings go in 50 batches, enough for a pool
    # of 2 processes
    _negated_on_odd_lengths(monkeypatch)
    solo = run_closed_forms_suite(max_n=12, jobs=1)
    duo = run_closed_forms_suite(max_n=12, jobs=2)
    assert len(pool_starts) == 1
    assert len(solo[1]) == 2 + 8 + 32 + 128 + 512  # the strings of length 3, 5, 7, 9 and 11
    assert {r["detail"] for r in solo[1]} == {"characterization wrong on mask 0x0"}
    assert solo == duo


def _one_string_off_by_one(monkeypatch):
    """Add one to the top coefficient of one string's closed form."""
    real = sweeps.poly_threshold

    def off(b):
        p = real(b)
        return ZfPolynomial(p.n, p.coeffs[:-1] + (p.coeffs[-1] + 1,)) if b == "0010110111" else p

    monkeypatch.setattr(sweeps, "poly_threshold", off)


@pytest.mark.parametrize("fault", ["none", "negated-on-odd-lengths", "one-closed-form-off", "zf-flip"])
def test_closed_forms_suite_threshold_records_equal_the_per_string_oracle(monkeypatch, plant, fault):
    # record for record, in order, against the per-string check of every
    # string up to length 12; the zf flip (the empty set forces) reaches the
    # batches and the oracle's flag table through the plant seam
    if fault == "negated-on-odd-lengths":
        _negated_on_odd_lengths(monkeypatch)
    elif fault == "one-closed-form-off":
        _one_string_off_by_one(monkeypatch)
    elif fault == "zf-flip":
        plant(everywhere(lambda zf, coeffs: (zf ^ 1, coeffs)))
    _, records = run_closed_forms_suite(max_n=12, jobs=1)
    want = [sweeps._record(check, length, f"threshold:{b}", detail) for length in range(2, 13)
            for b in canonical_connected_strings(length) for check, detail in threshold_string_records(b)]
    assert [r for r in records if r["graph"].startswith("threshold:")] == want
    assert len(want) == {"none": 0, "negated-on-odd-lengths": 682, "one-closed-form-off": 1, "zf-flip": 2047}[fault]


@pytest.mark.parametrize(
    "flipped, detail",
    [((0b1100,), "0xc"), ((0b1001,), "0x9"), ((0b1100, 0b0110), "0x6")],
    ids=["added", "dropped", "both"],
)
def test_threshold_check_names_the_lowest_differing_mask(plant, flipped, detail):
    # 0011 generates K4 minus the edge 01: its zero forcing sets are the sets
    # of two or more vertices other than {0, 1} and {2, 3}; it is string 1
    # of the one batch of length 4, all 4 strings of which take the flips
    flips = sum(1 << mask for mask in flipped)
    plant(everywhere(lambda zf, coeffs: (zf ^ flips, coeffs)))
    want = [("threshold-zfs-check", f"characterization wrong on mask {detail}")]
    failed = dict(sweeps._check_threshold_batch((4, 2, 0)))
    assert list(failed) == canonical_connected_strings(4) and failed["0011"] == want
    assert threshold_string_records("0011") == want


def test_count_consecutive_direct_matches_the_naive_counts():
    for n in range(1, 11):
        for m in (3, 4, 5):  # m > n included
            assert sweeps._count_consecutive_direct(n, m) == naive_consecutive_counts(n, m)


def test_multiplicativity_check_ignores_enumeration_cap(monkeypatch):
    # the sweep kernel tallies components directly, so ZFPOLY_MAX_N (which
    # caps the public entry points) cannot abort a sweep part way through
    monkeypatch.setenv("ZFPOLY_MAX_N", "1")
    assert exhaustive_sweep({"multiplicativity"}, max_n=4)[1] == []


def test_random_specs_deterministic():
    a = random_graph_specs(20, 8, 14, seed=9)
    b = random_graph_specs(20, 8, 14, seed=9)
    assert a == b
    assert a != random_graph_specs(20, 8, 14, seed=10)
    assert all(8 <= n <= 14 for n, _ in a)


def test_random_sweep_conjectures_clean():
    specs = random_graph_specs(12, 8, 10, seed=3)
    count, records = random_sweep({"unimodality", "path-bound"}, specs)
    assert count == 12
    assert records == []


def test_reversal_reports_terminals_that_do_not_force(monkeypatch):
    # claim that every vertex forces: the chain terminals are then the empty
    # set, which is closed and forces nothing on the 3-path
    real_sweep = sweeps._sweep
    monkeypatch.setattr(sweeps, "_sweep", lambda adj, mask: ((1 << len(adj)) - 1, real_sweep(adj, mask)[1]))
    _, records = random_sweep({"reversal"}, [(3, 0b101)])
    assert [r["check"] for r in records] == ["reversal"]


def test_ham_bound_reports_a_hamiltonian_graph_above_the_path_bound(plant):
    plant(everywhere(_one_more_set))  # every graph above the path at size n
    _, records = random_sweep({"ham-bound"}, [(4, edge_mask(cycle(4)))])
    assert [(r["check"], r["detail"]) for r in records] == [
        ("ham-bound", "Hamiltonian-path graph exceeds the path bound")]


def test_one_graph_records_come_in_check_order(plant):
    plant(everywhere(_one_more_set))
    records = random_sweep(CHECK_KEYS, [(4, edge_mask(path(4)))])[1]
    checks = [r["check"] for r in records]
    assert len(set(checks)) >= 3
    assert checks == sorted(checks, key=CHECK_KEYS.index)


def test_ham_bound_consults_the_path_dp_before_reporting(monkeypatch, plant):
    # the star K_{1,3} has no Hamiltonian path, so the failed conclusion is vacuous
    calls = []
    real_dp = sweeps._has_hamiltonian_path
    monkeypatch.setattr(sweeps, "_has_hamiltonian_path", lambda adj, n: calls.append(n) or real_dp(adj, n))
    plant(everywhere(_one_more_set))
    assert random_sweep({"ham-bound"}, [(4, edge_mask(star(4)))])[1] == []
    assert calls == [4]


def test_ham_bound_skips_the_path_dp_when_both_conclusions_hold(monkeypatch):
    def refuse(adj, n):
        raise AssertionError("the Hamiltonian-path DP ran on a graph that meets the bound")

    monkeypatch.setattr(sweeps, "_has_hamiltonian_path", refuse)
    assert exhaustive_sweep({"ham-bound"}, max_n=5)[1] == []


def test_reversal_visits_exactly_the_minimum_zero_forcing_sets(monkeypatch):
    seen = {}
    real_sweep = sweeps._sweep

    def spy(adj, mask):
        seen.setdefault((len(adj), tuple(adj)), []).append(mask)
        return real_sweep(adj, mask)

    monkeypatch.setattr(sweeps, "_sweep", spy)
    specs = [(n, e) for n in range(1, 6) for e in range(1 << (n * (n - 1) // 2))]
    assert random_sweep({"reversal"}, specs)[1] == []
    for n, emask in specs:
        g = graph_from_edge_mask(n, emask)
        for z in range(n + 1):
            expected = [m for m in range(1 << n) if m.bit_count() == z
                        and naive_is_zfs(g, {v for v in range(n) if m >> v & 1})]
            if expected:
                break
        assert sorted(seen.pop((n, g.adj))) == expected
    assert seen == {}


def test_canonical_connected_string_counts():
    for length in range(2, 10):
        strings = canonical_connected_strings(length)
        assert len(strings) == 1 << (length - 2)
        assert len(set(strings)) == len(strings)
        for b in strings:
            assert b[0] == b[1] and b[-1] == "1" and len(b) == length


def test_closed_forms_suite_small():
    checked, records = run_closed_forms_suite(max_n=8)
    assert records == []
    assert checked > 100


# One fault per check of the closed-forms suite: the name in sweeps that it
# replaces, and the replacement, made from the real one.
CLOSED_FORM_FAULTS = {
    "family-path": ("path", lambda real: complete),
    "family-cycle": ("cycle", lambda real: path),
    "family-complete": ("complete", lambda real: empty),
    "family-wheel": ("poly_wheel", lambda real: poly_complete),
    "family-multipartite": ("complete_multipartite", lambda real: lambda parts: complete(sum(parts))),
    "consecutive-selections": ("count_consecutive_selections", lambda real: lambda n, k, m: real(n, k, m) + (k == n)),
    # not chorded cycles: a 5-cycle with a chord has the cycle's polynomial
    "chord-invariance": ("_chorded_cycles", lambda real: lambda n: [(i, j, path(n).adj) for i, j, _ in real(n)]),
    "threshold-permutation": ("same_poly_threshold_family",
                              lambda real: lambda k: [*real(k)[:-1], ("1", poly_path(1))]),
    "threshold-poly": ("poly_threshold", lambda real: lambda b: poly_path(len(b))),
    # the empty set forces every string of the batch
    "threshold-zfs-check": ("_threshold_batch_bits",
                            lambda real: lambda strings, b: real(strings, b) ^ _block_bases(len(strings[0]), b)),
}


@pytest.mark.parametrize("check", CLOSED_FORM_FAULTS)
def test_each_closed_forms_check_reports_its_own_fault(monkeypatch, check):
    name, fault = CLOSED_FORM_FAULTS[check]
    monkeypatch.setattr(sweeps, name, fault(getattr(sweeps, name)))
    _, records = run_closed_forms_suite(max_n=7, jobs=1)
    assert records and {r["check"] for r in records} == {check}


def _public_family(graph):
    """The public builder's graph and the closed form behind the name a
    closed-forms record gives a family instance."""
    label, _, arg = graph.partition(":")
    if label == "multipartite":
        parts = [int(a) for a in arg.strip("[]").split(",")]
        return complete_multipartite(parts), poly_multipartite(parts)
    if label == "cycle-chord":
        n, i, j = map(int, arg.split(":"))
        return cycle_plus_chord(n, i, j), poly_cycle(n)
    build, form = {"path": (path, poly_path), "cycle": (cycle, poly_cycle), "complete": (complete, poly_complete),
                   "wheel": (wheel, poly_wheel)}[label]
    return build(int(arg)), form(int(arg))


@pytest.mark.parametrize("check", ["family-path", "family-cycle", "family-complete", "family-wheel",
                                   "family-multipartite", "chord-invariance"])
def test_zf_polynomial_meets_each_closed_form_the_suite_lists(check):
    # the suite tallies its families in lane batches; here every instance it
    # lists at max_n 12 goes through zf_polynomial, built by the public builder
    instances = [inst for inst in sweeps._family_instances(12) if inst[0] == check]
    assert len(instances) == {"family-path": 12, "family-cycle": 10, "family-complete": 12, "family-wheel": 8,
                              "family-multipartite": 65, "chord-invariance": 112}[check]
    for _, n, graph, adj, want in instances:
        g, form = _public_family(graph)
        assert g.n == n and g.adj == tuple(adj), graph
        assert zf_polynomial(g).coeffs == form.coeffs == want, graph


@pytest.mark.parametrize("graph, check, detail", [
    ("wheel:6", "family-wheel", "closed form differs from enumeration"),
    ("multipartite:[3, 3, 2]", "family-multipartite", "closed form differs from enumeration"),
    ("cycle-chord:7:1:4", "chord-invariance", "chorded cycle polynomial differs from the cycle's"),
])
def test_a_wrong_coefficient_in_the_family_tally_files_its_record(monkeypatch, graph, check, detail):
    target = list(_public_family(graph)[0].adj)
    real = sweeps._list_tally

    def off(adjs, n, b):
        zf, counts = real(adjs, n, b)
        return zf, [c[:-1] + (c[-1] + 1,) if list(adj) == target else c for adj, c in zip(adjs, counts)]

    monkeypatch.setattr(sweeps, "_list_tally", off)
    _, records = run_closed_forms_suite(max_n=12, jobs=1)
    assert [(r["check"], r["graph"], r["detail"]) for r in records] == [(check, graph, detail)]


def test_a_wrong_lane_of_the_string_lanes_names_its_string_and_mask(monkeypatch):
    # a fault in the characterization kernel on one lane of the one batch of
    # length 8 (2^6 strings of 2^8 masks), which the per-string tables miss
    real = closed_forms._threshold_lanes

    def flipped(symbols, ones, planes):
        bits = real(symbols, ones, planes)
        return bits ^ 1 << (5 << 8 | 0x13) if ones.bit_length() == 1 << 14 else bits

    monkeypatch.setattr(closed_forms, "_threshold_lanes", flipped)
    _, records = run_closed_forms_suite(max_n=12, jobs=1)
    b = canonical_connected_strings(8)[5]
    want = ("threshold-zfs-check", "characterization wrong on mask 0x13")
    assert records == [sweeps._record(want[0], 8, f"threshold:{b}", want[1])]
    assert threshold_string_records(b) == []


def test_expected_cycle_class_sizes():
    assert [len(expected_cycle_class(n)) for n in (3, 4, 5, 6, 7)] == [1, 3, 2, 4, 3]


def test_verify_cycle_class_small():
    assert verify_cycle_class(4) == []
    assert verify_cycle_class(5) == []


@pytest.mark.parametrize("n", range(3, 8))
def test_listed_cycle_class_is_distinct_and_shares_the_cycle_polynomial(n):
    listed = expected_cycle_class(n)
    for i, g in enumerate(listed):
        assert zf_polynomial(g) == poly_cycle(n)
        assert not any(is_isomorphic(g, h) for h in listed[i + 1:])


@pytest.mark.parametrize("n", range(3, 8))
def test_cycle_orbit_is_every_labeling_of_the_listed_class(n):
    # the batch path's orbit against is_isomorphic to a listed graph, the
    # per-graph path's test: every labeled graph at n = 3-5, the graphs with
    # the cycle polynomial at n = 6, and at n = 7 seeded masks, of which half
    # relabel a listed graph
    ctx = sweeps._context(n)

    def listed(emask):
        return any(is_isomorphic(graph_from_edge_mask(n, emask), h) for h in ctx.cycle_class)

    orbit = ctx.cycle_orbit
    assert len(orbit) == {3: 1, 4: 12, 5: 72, 6: 960, 7: 5400}[n]
    if n <= 5:
        assert orbit == {emask for emask in range(1 << comb(n, 2)) if listed(emask)}
    elif n == 6:
        target = poly_cycle(n).coeffs
        cyclic = {base + g for base in range(0, 1 << 15, 1 << 10)
                  for g, coeffs in enumerate(_batch_tally(ctx.pairs, n, base, 10)[1]) if coeffs == target}
        assert cyclic == orbit
        assert all(map(listed, cyclic))
    else:
        rng = random.Random(5400)
        masks = [rng.getrandbits(comb(n, 2)) for _ in range(200)]
        for _ in range(200):
            p = rng.sample(range(n), n)
            masks.append(edge_mask(from_edge_list(n, [(p[u], p[v]) for u, v in rng.choice(ctx.cycle_class).edges()])))
        assert [emask in orbit for emask in masks] == [listed(emask) for emask in masks]
        assert sum(emask in orbit for emask in masks) >= 200


def test_the_sweep_builds_the_orbits_before_a_pool_forks(fresh_context, pool_starts):
    # order 6 maps in a pool at jobs 2, whose workers inherit the orbit
    assert exhaustive_sweep({"recognizability"}, max_n=6, jobs=2) == (sum(1 << comb(n, 2) for n in range(1, 7)), [])
    assert pool_starts == [(2,)]
    assert all("cycle_orbit" in vars(sweeps._context(n)) for n in range(3, 7))


def test_the_per_graph_path_builds_no_orbit(fresh_context):
    # _check_one tests the cycle class with is_isomorphic, the orbit's oracle
    for n in (5, 6):
        assert random_sweep({"recognizability"}, [(n, edge_mask(cycle(n)))]) == (1, [])
        assert "cycle_orbit" not in vars(sweeps._context(n))


@pytest.fixture
def fresh_context():
    """Drops the cached per-order constants before and after a patch of the
    cycle class list, so no check sees a list from another test."""
    sweeps._context.cache_clear()
    yield
    sweeps._context.cache_clear()


@needs_fork
def test_recognizability_reports_a_cycle_outside_the_list(monkeypatch, pool_starts, fresh_context, narrow_batches):
    real_list = sweeps.expected_cycle_class
    # the plain 5-cycle dropped from the list
    monkeypatch.setattr(sweeps, "expected_cycle_class", lambda n: real_list(n)[1:] if n == 5 else real_list(n))
    solo = exhaustive_sweep({"recognizability"}, max_n=5, jobs=1)
    narrow_batches()
    duo = exhaustive_sweep({"recognizability"}, max_n=5, jobs=2)
    assert len(pool_starts) == 1  # order 5
    assert solo == duo
    records = solo[1]
    assert len(records) == 12  # 5!/10 labeled 5-cycles
    assert all(r["check"] == "recognizability" and r["n"] == 5 for r in records)
    assert all(is_isomorphic(graph_from_edge_mask(5, r["graph"]), cycle(5)) for r in records)
    # the per-graph path, which tests the class with is_isomorphic, agrees
    assert random_sweep({"recognizability"}, [(5, emask) for emask in range(1 << 10)]) == (1 << 10, records)


def test_verify_cycle_class_reports_a_listed_non_member(monkeypatch, fresh_context):
    real_list = sweeps.expected_cycle_class
    monkeypatch.setattr(sweeps, "expected_cycle_class", lambda n: real_list(n) + [path(n)])
    records = verify_cycle_class(5)
    assert len(records) == 1
    assert records[0]["check"] == "cycle-class" and str(path(5).edges()) in records[0]["detail"]


def test_recognizability_suite_does_not_run_the_class_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the suite must not search for the cycle class")

    monkeypatch.setattr(analysis, "cycle_polynomial_class", refuse)
    assert not hasattr(sweeps, "cycle_polynomial_class")
    report = run_suite("recognizability", max_n=6)
    assert report["passed"], report["failures"]
    # every labeled graph with n <= 6, plus one list check per order 3-6
    assert report["graphs_checked"] == sum(1 << (n * (n - 1) // 2) for n in range(1, 7)) + 4


@pytest.mark.parametrize("suite", sorted(SWEEP_SUITE_CHECKS))
def test_each_sweep_suite_passes_at_small_order(suite):
    report = run_suite(suite, max_n=4, seed=1)
    assert report["passed"], report["failures"]
    assert report["warnings"] == []


def test_run_suite_files_every_pass_in_order_as_failures_or_warnings(monkeypatch):
    passes = []

    def mixed_records(name):
        passes.append(name)
        return [sweeps._record(check, len(passes), name, "planted")
                for check in ("extremal", "unimodality", "ip", "path-bound")]

    monkeypatch.setattr(sweeps, "exhaustive_sweep", lambda checks, max_n, jobs: (1000, mixed_records("exhaustive")))
    monkeypatch.setattr(sweeps, "random_sweep",
                        lambda checks, specs, jobs: (len(specs), mixed_records("random:" + ",".join(sorted(checks)))))
    monkeypatch.setattr(sweeps, "verify_cycle_class", lambda n: mixed_records(f"cycle-class:{n}"))
    monkeypatch.setattr(sweeps, "run_closed_forms_suite", lambda max_n, jobs: (7, mixed_records("closed-forms")))
    report = run_suite("all", max_n=4, seed=1)
    assert passes == ["exhaustive", "random:ip", "random:path-bound,unimodality",
                      "cycle-class:3", "cycle-class:4", "closed-forms"]
    assert report["graphs_checked"] == 1000 + sweeps.IP_RANDOM_COUNT + sweeps.CONJECTURE_RANDOM_COUNT + 2 + 7
    order = [(r["n"], r["check"]) for r in report["failures"]]
    assert order == [(k, check) for k in range(1, 7) for check in ("extremal", "ip")]
    order = [(r["n"], r["check"]) for r in report["warnings"]]
    assert order == [(k, check) for k in range(1, 7) for check in ("unimodality", "path-bound")]
    assert not report["passed"]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_check_table_views_are_pinned():
    # the record order, the suites that run each check, and which checks
    # only warn; moving a check to another suite must fail here
    assert CHECK_KEYS == (
        "extremal", "zero-range", "all-min-sets", "hall", "multiplicativity", "fort-transversal",
        "fort-count-bound", "ip", "ham-bound", "recognizability", "unimodality", "path-bound", "reversal",
    )
    assert list(SWEEP_SUITE_CHECKS.items()) == [
        ("extremal", frozenset({"extremal", "zero-range", "all-min-sets"})),
        ("hall", frozenset({"hall"})),
        ("multiplicativity", frozenset({"multiplicativity"})),
        ("forts", frozenset({"fort-transversal", "fort-count-bound", "ham-bound"})),
        ("ip", frozenset({"ip"})),
        ("recognizability", frozenset({"recognizability"})),
        ("conjectures", frozenset({"unimodality", "path-bound"})),
    ]
    assert CONJECTURE_CHECKS == frozenset({"unimodality", "path-bound"})
    assert SUITES == ("conjectures", "extremal", "forts", "hall", "ip", "multiplicativity", "recognizability",
                      "closed-forms", "all")
    # what each check reads, so a wrong entry in the table's second column
    # fails here
    assert sweeps.FORT_CHECKS == frozenset({"fort-transversal", "fort-count-bound", "ip"})
    assert sweeps.STRUCTURE_CHECKS == frozenset({"extremal", "multiplicativity", "ham-bound", "recognizability"})
    assert COEFFICIENT_CHECKS == frozenset({"zero-range", "hall", "unimodality", "path-bound"})
    assert FACT_FREE_CHECKS == frozenset({"extremal", "multiplicativity", "fort-transversal"})


# The public statements of the paper's results, each with the sweep check
# (a CHECK_KEYS row or a closed-forms check) that tests it over the corpus,
# and whether it is proved (True) or a conjecture (False).
LEDGER = {
    "all_min_sets_forcing": ("all-min-sets", True),
    "extremal_coefficients": ("extremal", True),
    "hall_monotonicity_holds": ("hall", True),
    "fort_count_bound_holds": ("fort-count-bound", True),
    "recognizes_path": ("recognizability", True),
    "recognizes_complete": ("recognizability", True),
    "path_bound_holds": ("path-bound", False),
    "poly_path": ("family-path", True),
    "poly_cycle": ("family-cycle", True),
    "poly_complete": ("family-complete", True),
    "poly_wheel": ("family-wheel", True),
    "poly_multipartite": ("family-multipartite", True),
    "poly_threshold": ("threshold-poly", True),
    "threshold_zfs_check": ("threshold-zfs-check", True),
    "count_consecutive_selections": ("consecutive-selections", True),
}

# Proved results that no sweep check tests yet: z(G;i) <= C(n,i) - C(n-i-1,i)
# when some fort has at most Z(G)+1 vertices needs a check key of its own.
UNCHECKED_THEOREMS = {"small_fort_coefficient_bound"}


def test_every_public_result_maps_to_a_check():
    patterns = ("*_holds", "*_bound", "recognizes_*", "poly_*")
    named = {"all_min_sets_forcing", "extremal_coefficients", "threshold_zfs_check", "count_consecutive_selections"}
    public = {name for name in dir(zfpoly) if not name.startswith("_")
              and (name in named or any(fnmatch.fnmatchcase(name, p) for p in patterns))}
    assert public == set(LEDGER) | UNCHECKED_THEOREMS
    assert UNCHECKED_THEOREMS == {"small_fort_coefficient_bound"}
    for name, (check, proved) in LEDGER.items():
        assert check in CHECK_KEYS or check in CLOSED_FORM_FAULTS, name
        assert (check in CONJECTURE_CHECKS) == (not proved), name


def test_suite_names_stable():
    assert set(SUITES) == {
        "conjectures",
        "extremal",
        "forts",
        "hall",
        "ip",
        "multiplicativity",
        "recognizability",
        "closed-forms",
        "all",
    }
