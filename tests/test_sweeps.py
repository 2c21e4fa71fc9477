import pytest

from zfpoly.parallel import parallel_map
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


def test_exhaustive_sweep_rejects_large_order():
    with pytest.raises(ValueError):
        exhaustive_sweep({"hall"}, max_n=8)


def test_parallel_map_rejects_jobs_below_one():
    with pytest.raises(ValueError):
        list(parallel_map(abs, [1, 2], 0))
    assert list(parallel_map(abs, [-1, -2], 1)) == [1, 2]


def test_parallel_sweep_is_deterministic():
    solo = exhaustive_sweep({"extremal", "ip"}, max_n=4, jobs=1)
    duo = exhaustive_sweep({"extremal", "ip"}, max_n=4, jobs=2)
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
