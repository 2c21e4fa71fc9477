import importlib.util
import json
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_pairs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _fake_pairs(bench_pairs, monkeypatch, tmp_path, mode):
    """Runs main with mode on two empty checkouts, subprocess.run stubbed;
    returns the checkouts and the calls as (checkout, command, environment)."""
    calls = []

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
    trees, calls = _fake_pairs(bench_pairs, monkeypatch, tmp_path, ["--criterion-4", "--pairs", "2"])
    for tree in trees.values():
        runs = [(cmd, env) for cwd, cmd, env in calls if cwd == tree]
        (_, compile_env), (warm_cmd, warm_env), *timed = runs
        assert warm_cmd[1:] == ["-c", bench_pairs.CRITERION_4_IMPORTS]
        assert warm_env["PYTHONPYCACHEPREFIX"] == compile_env["PYTHONPYCACHEPREFIX"]
        # each sweep, then git naming its commit
        assert [cmd[1:] for cmd, _ in timed] == [["-c", bench_pairs.CRITERION_4], ["rev-parse", "HEAD"]] * 2
    assert [(cwd.name, cmd[1]) for cwd, cmd, _ in calls[2:4]] == [("parent", "-c"), ("change", "-c")]
