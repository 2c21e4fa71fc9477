import multiprocessing

import pytest

from zfpoly import analysis, parallel, sweeps
from zfpoly.closed_forms import poly_cycle
from zfpoly.parallel import parallel_map
from zfpoly.polynomial import _closure_tally
from zfpoly.sweeps import (
    CHECK_KEYS,
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


def test_exhaustive_sweep_rejects_large_order():
    with pytest.raises(ValueError):
        exhaustive_sweep({"hall"}, max_n=8)


def test_parallel_map_rejects_jobs_below_one():
    with pytest.raises(ValueError):
        list(parallel_map(abs, [1, 2], 0))
    assert list(parallel_map(abs, [-1, -2], 1)) == [1, 2]


@pytest.fixture
def pool_starts(monkeypatch):
    """Records the arguments of every process pool parallel_map starts."""
    starts = []
    real_pool = parallel.Pool

    def counting_pool(*args, **kwargs):
        starts.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(parallel, "Pool", counting_pool)
    return starts


# Planted failures are module attributes patched in this process; pool
# workers see them only when they are forked from it.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="planted failures reach pool workers only through fork")


def test_parallel_sweep_is_deterministic(pool_starts):
    solo = exhaustive_sweep({"extremal", "ip"}, max_n=4, jobs=1)
    assert pool_starts == []
    duo = exhaustive_sweep({"extremal", "ip"}, max_n=4, jobs=2)
    assert pool_starts == [(2,)] * 3  # orders 2-4; order 1 has a single graph
    assert solo == duo


def _tally_with_z_one_lower(adj, n):
    table, coeffs = _closure_tally(adj, n)
    z = next(i for i, c in enumerate(coeffs) if c)
    coeffs[z - 1], coeffs[z] = coeffs[z], 0
    return table, coeffs


@needs_fork
def test_random_sweep_records_do_not_depend_on_jobs(monkeypatch, pool_starts):
    # every graph fails zero-range and ip, some extremal too, so the
    # comparison covers the order of records within and across graphs
    monkeypatch.setattr(sweeps, "_closure_tally", _tally_with_z_one_lower)
    specs = random_graph_specs(12, 5, 8, seed=4)
    checks = {"extremal", "zero-range", "ip"}
    solo = random_sweep(checks, specs, jobs=1)
    duo = random_sweep(checks, specs, jobs=2)
    assert len(pool_starts) == 1
    assert len(solo[1]) >= 2 * len(specs)
    assert solo == duo


@needs_fork
def test_cycle_class_does_not_depend_on_jobs(monkeypatch, pool_starts):
    # every graph with no isolated vertex and the cycle's coefficient n-2
    # now matches, so several classes come back in first-seen order
    monkeypatch.setattr(analysis, "_closure_tally", lambda adj, n: (None, list(poly_cycle(n).coeffs)))
    solo = analysis.cycle_polynomial_class(5, jobs=1)
    duo = analysis.cycle_polynomial_class(5, jobs=2)
    assert len(pool_starts) == 1
    assert len(solo) > len(expected_cycle_class(5))
    assert solo == duo


@needs_fork
def test_closed_forms_suite_records_do_not_depend_on_jobs(monkeypatch, pool_starts):
    real_check = sweeps.threshold_zfs_check
    # the characterization negated on every string of odd length
    monkeypatch.setattr(sweeps, "threshold_zfs_check", lambda b, mask: real_check(b, mask) != len(b) % 2)
    solo = run_closed_forms_suite(max_n=6, jobs=1)
    duo = run_closed_forms_suite(max_n=6, jobs=2)
    assert len(pool_starts) == 1
    assert len(solo[1]) == 2 + 8  # the strings of length 3 and 5
    assert solo == duo


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


def test_canonical_connected_string_counts():
    for length in range(2, 10):
        strings = canonical_connected_strings(length)
        assert len(strings) == 1 << (length - 2)
        assert len(set(strings)) == len(strings)
        for b in strings:
            assert b[0] == b[1] and b[-1] == "1" and len(b) == length


def test_closed_forms_suite_small():
    checked, records = run_closed_forms_suite(max_n=8, lemma_max_n=9)
    assert records == []
    assert checked > 100


def test_expected_cycle_class_sizes():
    assert [len(expected_cycle_class(n)) for n in (3, 4, 5, 6, 7)] == [1, 3, 2, 4, 3]


def test_verify_cycle_class_small():
    assert verify_cycle_class(4) == []
    assert verify_cycle_class(5) == []


@pytest.mark.parametrize("suite", sorted(SWEEP_SUITE_CHECKS))
def test_each_sweep_suite_passes_at_small_order(suite):
    report = run_suite(suite, max_n=4, seed=1, ip_random_count=6, conjecture_random_count=10)
    assert report["passed"], report["failures"]
    assert report["warnings"] == []


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


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
