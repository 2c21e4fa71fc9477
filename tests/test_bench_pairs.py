import importlib.util
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_acceptance import CRITERION_4_CHECKS, EXTRA_SWEEP_CHECKS
from zfpoly.graphs import _edge_mask_adj, edge_pair_order
from zfpoly.sweeps import CHECK_KEYS

REPO = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _script("bench_pairs")


@pytest.fixture(scope="module")
def ab_layers():
    return _script("ab_layers")


def _run(**values):
    return {"metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


def test_summarize_counts_no_ties_and_skips_a_run_that_ended_in_an_error(bench_pairs):
    pairs = [
        {"parent": _run(graphs_per_s=10.0, graph_p50_ms=2.0, raw_graphs_per_s=5.0),
         "change": _run(graphs_per_s=12.0, graph_p50_ms=2.0, raw_graphs_per_s=5.0)},
        {"parent": _run(graphs_per_s=10.0, graph_p50_ms=3.0, raw_graphs_per_s=6.0),
         "change": _run(graphs_per_s=10.0, graph_p50_ms=1.0, raw_graphs_per_s=4.0)},
        {"parent": {"error": "exit 1: boom"},
         "change": _run(graphs_per_s=99.0, graph_p50_ms=9.0, raw_graphs_per_s=99.0)},
    ]
    metrics = [{"name": "graphs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
               {"name": "graph_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
               *bench_pairs.RAW_METRICS]
    summary = bench_pairs.summarize(pairs, metrics)
    assert "host_speed" not in summary  # no record carries it
    scaled, p50, raw = summary["graphs_per_s"], summary["graph_p50_ms"], summary["raw_graphs_per_s"]
    assert scaled["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert scaled["change"]["median"] == 12.0  # the change's run beside the error still counts on its side
    assert (scaled["pairs"], scaled["change_better_pairs"]) == (2, 1)  # one win, one tie
    assert (p50["pairs"], p50["change_better_pairs"]) == (2, 1)  # a tie, then a lower p50
    assert (raw["pairs"], raw["change_better_pairs"], raw["bound"]) == (2, 0, None)  # a tie and a loss


def _fake_pairs(bench_pairs, monkeypatch, tmp_path, mode, calls=None):
    """Runs main with mode on two empty checkouts, subprocess.run stubbed;
    returns the checkouts and the calls as (checkout, command, environment),
    appended to calls if given."""
    calls = [] if calls is None else calls

    def fake_run(cmd, cwd, env=None, **kwargs):  # git rev-parse gets no env
        calls.append((Path(cwd), cmd, env))
        record = {"metrics": {}, "git_sha": str(cwd), "cpu": "cpu", "nproc": 2, "python": "3"}
        stdout = json.dumps(record) if cmd[1] == "-c" else json.dumps({"record": record}) + "\n{}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text('{"end_to_end": []}')
    bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]), *mode,
                      "--out", str(tmp_path / "pairs.json")])
    return trees, calls


def test_each_side_runs_on_its_own_fresh_bytecode_prefix(bench_pairs, monkeypatch, tmp_path):
    mode = ["--workload", "corpus-n7", "--seeds", "1-2"]
    trees, calls = _fake_pairs(bench_pairs, monkeypatch, tmp_path, mode)
    warm_up = ["bench/worker.py", "--workload", "corpus-n7", "--seed", "0", "--setup-only"]
    prefixes = {}
    for side, tree in trees.items():
        runs = [(cmd, env) for cwd, cmd, env in calls if cwd == tree]
        (compile_cmd, compile_env), (warm_cmd, _), *benchmarks = runs
        assert compile_cmd[1:4] == ["-m", "compileall", "-q"]
        assert compile_cmd[4:] == [str(tree.resolve() / "src"), str(tree.resolve() / "bench")]
        assert warm_cmd[1:] == warm_up  # once, after compiling and before the first timed run
        assert [cmd[1] for cmd, _ in benchmarks] == ["bench/run.py"] * 2
        prefix = compile_env["PYTHONPYCACHEPREFIX"]
        assert all(env["PYTHONPYCACHEPREFIX"] == prefix for _, env in runs)
        assert all("PYTHONDONTWRITEBYTECODE" not in env for _, env in runs)
        assert not Path(prefix).is_relative_to(tree)
        prefixes[side] = prefix
    assert prefixes["parent"] != prefixes["change"]
    # both compiled, then both warmed, before the first pair
    assert [(cwd.name, cmd[1]) for cwd, cmd, _ in calls[:4]] == [
        ("parent", "-m"), ("change", "-m"), ("parent", "bench/worker.py"), ("change", "bench/worker.py")]
    assert all(sorted(p.name for p in tree.iterdir()) == ["BENCHMARK.json"] for tree in trees.values())


def test_criterion_4_warms_each_side_with_the_sweep_imports(bench_pairs, monkeypatch, tmp_path):
    calls = []  # the sweeps' processes among the stubbed runs, in order

    class FakeSweep:
        def __init__(self, cmd, cwd, env, **kwargs):
            calls.append((Path(cwd), cmd, env))
            self.returncode = 0

        def communicate(self):
            return json.dumps({"metrics": {}, "nproc": 2, "python": "3"}), ""

    monkeypatch.setattr(bench_pairs.subprocess, "Popen", FakeSweep)
    trees, _ = _fake_pairs(bench_pairs, monkeypatch, tmp_path, ["--criterion-4", "--pairs", "2"], calls)
    for tree in trees.values():
        runs = [(cmd, env) for cwd, cmd, env in calls if cwd == tree]
        (_, compile_env), (warm_cmd, warm_env), *timed = runs
        assert warm_cmd[1:] == ["-c", bench_pairs.CRITERION_4_IMPORTS]
        assert warm_env["PYTHONPYCACHEPREFIX"] == compile_env["PYTHONPYCACHEPREFIX"]
        # each sweep, then git naming its commit
        assert [cmd[1:] for cmd, _ in timed] == [["-c", bench_pairs.CRITERION_4], ["rev-parse", "HEAD"]] * 2
        assert all(env["PYTHONPYCACHEPREFIX"] == compile_env["PYTHONPYCACHEPREFIX"] for cmd, env in timed
                   if cmd[1] == "-c")
    # both warmed before the first sweep starts
    assert [(cwd.name, cmd[2]) for cwd, cmd, _ in calls[2:4]] == [
        ("parent", bench_pairs.CRITERION_4_IMPORTS), ("change", bench_pairs.CRITERION_4_IMPORTS)]


def test_concurrent_criterion_4_alternates_the_side_started_first(bench_pairs, monkeypatch, tmp_path):
    # stubbed processes: each side's sweep reports the wall and CPU time of
    # its side, and both of a pair start before either is waited for
    events = []
    times = {"parent": (20.0, 10.0), "change": (15.0, 9.0)}

    class FakeSweep:
        def __init__(self, cmd, cwd, env, **kwargs):
            assert cmd[1:] == ["-c", bench_pairs.CRITERION_4]
            self.side, self.returncode = Path(cwd).name, 0
            events.append(("start", self.side))

        def communicate(self):
            events.append(("wait", self.side))
            wall, cpu = times[self.side]
            return json.dumps({"metrics": {"wall_s": {"value": wall}, "cpu_s": {"value": cpu}}, "nproc": 2,
                               "python": "3"}), ""

    monkeypatch.setattr(bench_pairs.subprocess, "Popen", FakeSweep)
    _fake_pairs(bench_pairs, monkeypatch, tmp_path, ["--criterion-4", "--pairs", "4"])
    assert "7, jobs=1)" in bench_pairs.CRITERION_4  # one process per side, one core each
    starts = [side for event, side in events if event == "start"]
    assert starts == ["parent", "change", "change", "parent"] * 2
    assert [event for event, _ in events] == ["start", "start", "wait", "wait"] * 4
    entry = json.loads((tmp_path / "pairs.json").read_text())["workloads"]["criterion-4-concurrent"]
    assert [pair["first"] for pair in entry["pairs"]] == starts[::2]
    assert all(pair["ratio"] == {"wall_s": 0.75, "cpu_s": 0.9} for pair in entry["pairs"])
    wall = entry["summary"]["wall_s"]
    assert (wall["median_ratio"], wall["change_better_pairs"], wall["pairs"]) == (0.75, 4, 4)
    assert entry["summary"]["cpu_s"]["median_ratio"] == 0.9


def test_sign_test_matches_hand_computed_values(ab_layers):
    assert ab_layers.sign_test_p(9, 1) == ab_layers.sign_test_p(1, 9) == 2 * (1 + 10) / 2 ** 10
    assert ab_layers.sign_test_p(10, 0) == 2 / 2 ** 10
    assert ab_layers.sign_test_p(60, 4) == 2 * (1 + 64 + 2016 + 41664 + 635376) / 2 ** 64
    assert ab_layers.sign_test_p(60, 4) == 2 * sum(comb(64, k) for k in range(5)) / 2 ** 64
    assert ab_layers.sign_test_p(5, 5) == ab_layers.sign_test_p(3, 2) == ab_layers.sign_test_p(0, 0) == 1.0
    row = ab_layers.summarize([0.5, 1.0, 0.8, 1.2])  # a tie counts for neither side
    assert row == {"median_ratio": 0.9, "change_wins": 2, "calls": 4, "sign_test_p": 1.0}


def test_ab_layers_times_the_criterion_4_set(ab_layers):
    # the kernel named criterion-4 runs the checks of the acceptance suite's sweep
    assert ab_layers.kernels(CHECK_KEYS)["criterion-4"] == CRITERION_4_CHECKS | EXTRA_SWEEP_CHECKS


def test_ab_layers_times_each_costly_check_alone(ab_layers):
    sets = ab_layers.kernels(CHECK_KEYS)
    assert list(sets) == ["none", "criterion-4", "all", "reversal", "multiplicativity"]
    assert (sets["none"], sets["all"]) == (frozenset(), frozenset(CHECK_KEYS))
    assert sets["reversal"] == {"reversal"} and sets["multiplicativity"] == {"multiplicativity"}


@pytest.mark.parametrize("planted, status", [([], 0), ([(5, [("hall", "planted")])], 1)], ids=["equal", "differ"])
def test_ab_layers_exits_nonzero_when_the_records_differ(ab_layers, monkeypatch, tmp_path, planted, status):
    # stub checkouts: the change reports planted records on every batch,
    # every graph with checks, every flag table, every polynomial and every
    # suite run, and only it has process memos, the order tables, the
    # component products and the facts, all of which each timed call
    # empties, and then builds the order tables below the batch's order
    # again; the reports' elapsed_s always differ
    calls = []

    class Memo:
        def __call__(self, k):
            calls.append(("table", k))

        def cache_clear(self):
            calls.append("clear")

    def fake_sweeps(records, **memos):
        def check_batch(checks, n, b, base):
            calls.append((n, b, base))
            return records if checks else []

        def random_sweep(checks, specs):
            calls.append(specs[0])
            return len(specs), records if checks else []

        def closure_tally(adj, n):
            calls.append(("tally", n, tuple(adj)))
            return adj, records

        def zf_polynomial(g):
            calls.append(("poly", g.n))
            return SimpleNamespace(coeffs=records)

        def run_suite(suite, max_n, jobs):
            calls.append((suite, max_n, jobs))
            return {"failures": records, "elapsed_s": len(calls)}

        def run_closed_forms_suite(max_n, jobs):
            calls.append(("closed-forms", max_n, jobs))
            return 925, records
        family = lambda n: SimpleNamespace(edges=lambda: [(0, n - 1)])  # noqa: E731
        return SimpleNamespace(CHECK_KEYS=("hall", "reversal"), _batch_bits=lambda n: 9,
                               edge_pair_order=edge_pair_order, _edge_mask_adj=_edge_mask_adj,
                               _check_batch=check_batch, random_sweep=random_sweep, _closure_tally=closure_tally,
                               zf_polynomial=zf_polynomial, run_suite=run_suite,
                               run_closed_forms_suite=run_closed_forms_suite, cycle=family, path=family,
                               wheel=family, from_edge_list=lambda n, edges: SimpleNamespace(n=n, edges=edges, adj=[n]),
                               **memos)

    memos = dict.fromkeys(("_order_counts", "_part_product", "_facts"), Memo())
    sides = {"zfpoly_parent": fake_sweeps([]), "zfpoly_change": fake_sweeps(planted, **memos)}
    monkeypatch.setattr(ab_layers, "load_sweeps", lambda tree, name: sides[name])
    monkeypatch.setattr(ab_layers, "git_sha", lambda tree: None)
    monkeypatch.setattr(ab_layers, "CORPUS_SPECS", 3)
    out = tmp_path / "layers.json"
    out.write_text('{"workloads": {}}')
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--batches", "2", "--out", str(out)]
    assert ab_layers.main(argv) == status
    doc = json.loads(out.read_text())
    # 4 batches, each under the three kernels with checks (multiplicativity
    # is no key of the stubs), the sweep passes, the per-graph passes, the
    # flag-table pass, the four polynomial passes, the suite runs and the
    # closed-forms suite runs
    passes = ab_layers.SWEEP_PASSES
    assert doc["workloads"] == {} and doc["layers"]["records_differ"] == (12 + 9 * passes) * status
    kernels = ("none", "criterion-4", "all", "reversal", "multiplicativity")
    assert {name: row["calls"] for name, row in doc["layers"]["kernels"].items()} == {
        **{f"sweeps._check_batch.{kernel}.n{n}": 2 for n in (6, 7) for kernel in kernels},
        "sweep.n6": passes, "random_sweep.n7": passes, "polynomial._closure_tally.n7": passes,
        "polynomial.zf_polynomial.large": passes, "polynomial.zf_polynomial.random": passes,
        "polynomial.zf_polynomial.random.n13_16": passes,
        "polynomial.zf_polynomial.unbanded": passes,
        "run_suite.all.n6": passes, "sweeps.run_closed_forms_suite.n10": passes}
    # untimed, per side: every check on the batch of each order that holds
    # the n-cycle, at the timed width, one per-graph call and one polynomial
    # of the large mix; then both sides on 2 sweep batches at n = 6 and 2 of
    # 2^10 at n = 7, then the passes over the 2 at n = 6, over the 3 specs
    # at n = 7, over their adjacencies, over the large mix, over the seeded
    # random graphs, over those with n <= 16 and over the trees and unions
    # that skip the band order, each from emptied memos and call by call on
    # both sides, then the suite runs and the closed-forms suite runs, each
    # from emptied memos, on both sides
    specs = ab_layers.corpus(3)
    cycles = [(n, b, ab_layers.cycle_batch(sides["zfpoly_change"], n, b)) for n, b in ((6, 9), (7, 10))]
    assert cycles[0] == (6, 9, 0b101001000110001 >> 9 << 9)  # the edges 01, 05, 12, 23, 34 and 45
    assert calls[:8] == [cycles[0]] * 2 + [cycles[1]] * 2 + [specs[0], ("poly", 19)] * 2
    large = [n for _, n in ab_layers.LARGE_GRAPHS if n < 21] * ab_layers.LARGE_REPEATS + [21]
    randoms = [n for n in ab_layers.RANDOM_ORDERS for _ in ab_layers.RANDOM_DENSITIES
               for _ in range(ab_layers.RANDOM_GRAPHS)]
    small = [n for n in randoms if n <= 16]
    unbanded = [n for n in ab_layers.UNBANDED_ORDERS for _ in range(2 * ab_layers.UNBANDED_GRAPHS)]
    sections = {"sweep": 7, "per_graph": 9, "tally": 9, "poly": 3 + 2 * len(large),
                "random": 3 + 2 * len(randoms), "random_small": 3 + 2 * len(small),
                "unbanded": 3 + 2 * len(unbanded), "suite": 5, "closed_forms": 5}  # calls per pass
    tail = sum(sections.values()) * passes
    timed, rest = calls[8:-tail], calls[-tail:]
    parts = {}
    for name, size in sections.items():
        parts[name], rest = rest[:size * passes], rest[size * passes:]
    assert timed.count("clear") == 3 * 4 * len(kernels)  # each memo, before each of the change's timed calls
    tables = [c for c in timed if c != "clear" and c[0] == "table"]
    assert tables == [("table", k) for n in (6, 6, 7, 7) for _ in kernels for k in range(1, n)]
    batches = [c for c in timed if c != "clear" and c[0] != "table"]
    assert [c for c in batches if c[0] == 6] == [(6, 9, 0)] * 10 + [(6, 9, 512)] * 10
    assert all(b == 10 and base % 1024 == 0 for n, b, base in batches if n == 7)
    assert parts["sweep"] == (["clear"] * 3 + [(6, 9, 0), (6, 9, 0), (6, 9, 512), (6, 9, 512)]) * passes
    assert parts["per_graph"] == (["clear"] * 3 + [spec for spec in specs for _ in range(2)]) * passes
    adjs = [tuple(_edge_mask_adj(edge_pair_order(n), n, emask)) for n, emask in specs]
    assert parts["tally"] == (["clear"] * 3 + [("tally", 7, adj) for adj in adjs for _ in range(2)]) * passes
    assert parts["poly"] == (["clear"] * 3 + [("poly", n) for n in large for _ in range(2)]) * passes
    assert parts["random"] == (["clear"] * 3 + [("poly", n) for n in randoms for _ in range(2)]) * passes
    assert parts["random_small"] == (["clear"] * 3 + [("poly", n) for n in small for _ in range(2)]) * passes
    assert len(randoms) == 48 and min(randoms) == 13 and max(randoms) == 20 and len(small) == 24
    assert parts["unbanded"] == (["clear"] * 3 + [("poly", n) for n in unbanded for _ in range(2)]) * passes
    assert len(unbanded) == 24 and min(unbanded) == 17 and max(unbanded) == 22
    jobs = min(2, os.cpu_count() or 1)
    assert parts["suite"] == (["clear"] * 3 + [("all", 6, jobs), ("all", 6, jobs)]) * passes
    assert parts["closed_forms"] == (["clear"] * 3 + [("closed-forms", 10, 1)] * 2) * passes
    assert all(n == 7 and 0 <= emask < 1 << 21 for n, emask in specs)


def test_ab_layers_loads_each_checkout_as_its_own_package(ab_layers, monkeypatch):
    # the same checkout under two names: two copies of the package, no timed
    # runs (CI runs the whole script on two copies of this checkout)
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    first, second = (ab_layers.load_sweeps(REPO, name) for name in ("zfpoly_parent", "zfpoly_change"))
    assert first is not second and first.__name__ == "zfpoly_parent.sweeps"
    assert first.CHECK_KEYS == second.CHECK_KEYS
    assert second.__file__ == str(REPO / "src" / "zfpoly" / "sweeps.py")
    assert sys.modules["zfpoly_change.sweeps"] is second
