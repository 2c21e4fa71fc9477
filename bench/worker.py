"""One benchmark process: set up one workload, then measure it or trace it.

Started by run.py.  Prints one JSON object on its last stdout line.
``--setup-only`` stops once the inputs are ready and reports the monotonic
clock at that moment, so the parent can time set-up from process start.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import zfpoly  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed, calibrate  # noqa: E402
from tracing import NULL_TRACER, Tracer  # noqa: E402


def timed_calls(w, tracer, min_calls: int, seconds: float = 0.0) -> tuple[array, array, int]:
    """At least ``min_calls`` calls of w.call, continuing until ``seconds`` have
    elapsed.  Returns each call's start and end on the perf_counter clock,
    and the failures the gate found.

    Each output is gated after its call is timed and then dropped, so memory
    does not grow with the number of calls.  An exception is one failure.
    """
    starts, ends = array("d"), array("d")
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while i < min_calls or perf_counter() < deadline:
        starts.append(perf_counter())
        try:
            res = w.call(i, tracer)
        except Exception as exc:  # the gate counts it as a failed operation
            ends.append(perf_counter())
            print(f"call {i} raised {exc!r}", file=sys.stderr)
            failed += 1
        else:
            ends.append(perf_counter())
            try:
                failed += w.failures(i, res)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                print(f"call {i} gave unreadable output: {exc!r}", file=sys.stderr)
                failed += 1
        i += 1
    return starts, ends, failed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (Pool worker)."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def measure(w, seconds: float) -> dict:
    """Untraced timed region with its gate; end-to-end metrics by name.

    Calls cycle over the workload's inputs.  An input's time is the median of
    its calls' host-scaled times (see hostspeed.py); graphs_per_s divides the
    graphs of one pass over the inputs by the sum of those times.
    """
    with HostSpeed() as speed:
        starts, ends, failed = timed_calls(w, NULL_TRACER, w.calls_per_pass, seconds)
    scaled = [speed.scaled(t0, t1) for t0, t1 in zip(starts, ends)]
    by_input: dict[int, list[float]] = {}
    for i, t in enumerate(scaled):
        by_input.setdefault(w.input_of(i), []).append(t)
    inputs = sorted(by_input)
    per_input = [median(by_input[j]) for j in inputs]
    per_item_ms = [t * 1e3 / w.items for t in per_input]
    raw_s = sum(t1 - t0 for t0, t1 in zip(starts, ends))
    attempted = len(starts) * w.items
    metrics = {
        "graphs_per_s": (len(inputs) * w.items / sum(per_input), "1/s"),
        "graph_p50_ms": (median(per_item_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "raw_graphs_per_s": (attempted / raw_s, "1/s"),
        "host_speed": (sum(scaled) / raw_s, "ratio"),
    }
    if len(per_item_ms) >= 1000:  # ten samples or more beyond the 99th percentile
        metrics["graph_p99_ms"] = (quantiles(per_item_ms, n=100)[98], "ms")
    subsets_of = getattr(w, "subsets_of", None)
    if subsets_of is not None:
        metrics["subsets_per_s"] = (sum(subsets_of(j) for j in inputs) / sum(per_input), "1/s")
    if isinstance(w, workloads.ClosedForms):
        metrics["instances_per_s"] = metrics["graphs_per_s"]
    return {"attempted": attempted, "failed": failed, "calls": len(starts), "metrics": metrics}


def trace(w, name: str, scale: str, seed: int) -> tuple[dict, list]:
    """Overhead pair (after a warm-up, the same calls untraced, then traced)
    and the layer probes."""
    work_tracer = Tracer()
    all_workloads = {other: w if other == name else workloads.build(other, scale, seed)
                     for other in workloads.WORKLOADS}
    probe_tracer = Tracer()
    probes = layers.Probes(probe_tracer, all_workloads, workloads.PARAMS[scale]["probes"], seed)
    with HostSpeed() as speed:
        warm = timed_calls(w, NULL_TRACER, w.overhead_calls)  # first calls pay one-off costs
        plain = timed_calls(w, NULL_TRACER, w.overhead_calls)
        traced = timed_calls(w, work_tracer, w.overhead_calls)
        probes.run()
    plain_s, traced_s = (sum(speed.scaled(t0, t1) for t0, t1 in zip(starts, ends))
                         for starts, ends, _ in (plain, traced))
    values = probes.metrics(speed.scaled)
    values["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    metrics = {key: (values[key], unit) for key, (unit, _) in layers.METRICS.items()}
    calls = len(warm[0]) + len(plain[0]) + len(traced[0])
    result = {"attempted": calls * w.items + probes.attempted,
              "failed": warm[2] + plain[2] + traced[2] + probes.failed,
              "calls": calls, "metrics": metrics}
    spans = [{"tracer": "workload", **s} for s in work_tracer.to_json()]
    spans += [{"tracer": "probes", **s} for s in probe_tracer.to_json()]
    return result, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.PARAMS), default="full")
    parser.add_argument("--plant-error", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if Path(zfpoly.__file__).resolve().parent != ROOT / "src" / "zfpoly":
        print(f"imported zfpoly from {zfpoly.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = workloads.build(args.workload, args.scale, args.seed, args.plant_error)
    ready = perf_counter()
    ready_cal = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "cal": ready_cal}))
        return 0
    if args.trace:
        result, spans = trace(w, args.workload, args.scale, args.seed)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(spans))
    else:
        result = measure(w, args.seconds)
    result["ready"], result["cal"] = ready, ready_cal
    result["params"] = {args.workload: workloads.PARAMS[args.scale][args.workload]}
    if args.trace:
        result["params"]["probes"] = workloads.PARAMS[args.scale]["probes"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
