import importlib.util
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
