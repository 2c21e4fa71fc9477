"""Run the benchmark on two checkouts in alternating pairs and write one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload check-all-n6 --seeds 501-510 --out BENCH_19.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --criterion-4 --pairs 10 --out pairs.json

Each pair runs ``bench/run.py --workload W --seed S --seconds 10 --trace 0``
in both checkouts, parent first on odd pairs and change first on even ones,
and keeps the full record each run prints.  The output file gains one entry
per workload, so several calls fill one file: the pairs, and per end-to-end
metric of BENCHMARK.json each side's median and quartiles and the number of
pairs the change won (ties count for neither side).  Where the records carry
them, the unscaled ``raw_graphs_per_s`` and the host's ``host_speed`` are
summarized the same way, with no bound.  The host, ``nproc``,
the Python version and both commits come from the records themselves.

Both sides start from the same bytecode state: before the first pair, each
checkout's ``src`` and ``bench`` are compiled with ``compileall`` into a
fresh ``PYTHONPYCACHEPREFIX`` of its own, in a temporary directory, and
every run of that side reads and writes bytecode there, never in the
checkout (``PYTHONDONTWRITEBYTECODE`` is dropped from the runs' environment).
The interpreter then reads no bytecode from the installation's own caches, so
one untimed warm-up run per side, ``bench/worker.py --workload W --seed 0
--setup-only`` or the criterion-4 script's imports, compiles the standard
library modules the runs import into that prefix before the first pair.

``--criterion-4`` times the acceptance suite's criterion-4 sweep instead:
each run is a fresh process in the checkout that calls
``exhaustive_sweep(CRITERION_4_CHECKS | EXTRA_SWEEP_CHECKS, 7, jobs=1)``,
with the check set imported from ``tests/test_acceptance.py``, and records
the sweep's wall time, the peak RSS of the process, the CPU time of the
process and its children, and ``graphs_checked``.  The two sides of each
pair start together, one per core of a 2-core host, the side started first
alternating from pair to pair, so that both run in the same speed phase of
the host.  Each pair also gets the change/parent ratio of the wall and CPU
times, and the summary their median; the pairs and their summary go under
``criterion-4-concurrent``.

The rule for a claim: the change is faster when it wins at least 9 of 10
pairs and its median beats the parent's by more than the spread between the
parent's quartiles.  Sequential pairs of long runs on a host whose speed
drifts cannot meet it for a change of a few percent; the concurrent
criterion-4 pairs and ``scripts/ab_layers.py`` can.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles


COMMAND = "bench/run.py --workload {workload} --seed {seed} --seconds 10 --trace 0"

CRITERION_4_IMPORTS = """\
import json, os, platform, resource, sys, time
sys.path[:0] = ["src", "tests"]
from test_acceptance import CRITERION_4_CHECKS, EXTRA_SWEEP_CHECKS
from zfpoly.sweeps import exhaustive_sweep
"""

CRITERION_4 = CRITERION_4_IMPORTS + """\
t0, cpu0 = time.perf_counter(), os.times()
count, records = exhaustive_sweep(CRITERION_4_CHECKS | EXTRA_SWEEP_CHECKS, 7, jobs=1)
wall = time.perf_counter() - t0
cpu = sum(os.times()[:4]) - sum(cpu0[:4])  # user and system, of the process and its children
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
print(json.dumps({"python": platform.python_version(), "nproc": os.cpu_count(), "jobs": 1,
                  "graphs_checked": count, "failed": len(records), "metrics": {
                      "wall_s": {"value": wall, "unit": "s"}, "cpu_s": {"value": cpu, "unit": "s"},
                      "peak_rss_self_mb": {"value": rss, "unit": "MB"}}}))
"""

CRITERION_4_METRICS = [{"name": name, "unit": unit, "better": "lower", "bound": None}
                       for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_self_mb", "MB"))]

# Summarized beside the host-scaled metrics when the records carry them: the
# unscaled throughput and the host's mean scale factor, which tell a change in
# the code from a drift of the host.
RAW_METRICS = [{"name": "raw_graphs_per_s", "unit": "1/s", "better": "higher", "bound": None},
               {"name": "host_speed", "unit": "ratio", "better": "higher", "bound": None}]


def fresh_bytecode(tree: Path, prefix: Path) -> dict:
    """The environment of tree's runs: bytecode under prefix, freshly
    compiled from tree's src and bench, and written there only."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    root = tree.resolve()  # the benchmark imports from resolved paths, which name the cached files
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src"), str(root / "bench")],
                   cwd=tree, env=env, capture_output=True, text=True, check=True)
    return env


def warm_up(tree: Path, workload: str | None, env: dict) -> None:
    """One untimed run of tree's imports under env: a set-up-only benchmark
    worker of workload, or with workload None the criterion-4 imports."""
    if workload is None:
        code = ["-c", CRITERION_4_IMPORTS]
    else:
        code = ["bench/worker.py", "--workload", workload, "--seed", "0", "--setup-only"]
    subprocess.run([sys.executable, *code], cwd=tree, env=env, capture_output=True, text=True)


def run_once(tree: Path, workload: str, seed: int, env: dict) -> dict:
    """The full record of one benchmark run, or the error it ended with."""
    cmd = [sys.executable, *COMMAND.format(workload=workload, seed=seed).split()]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-2])["record"]


def run_criterion_4_together(trees: dict, envs: dict, order: tuple) -> dict:
    """Per side, the record of one criterion-4 sweep, the sides' processes
    started together in order, or the error it ended with."""
    procs = {side: subprocess.Popen([sys.executable, "-c", CRITERION_4], cwd=trees[side], env=envs[side],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for side in order}
    outputs = {side: proc.communicate() for side, proc in procs.items()}
    return {side: criterion_4_record(trees[side], procs[side].returncode, *outputs[side]) for side in order}


def criterion_4_record(tree: Path, returncode: int, stdout: str, stderr: str) -> dict:
    if returncode != 0:
        return {"error": f"exit {returncode}: {stderr.strip()[-500:]}"}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return {**json.loads(stdout), "cpu": cpu_model(), "git_sha": sha.stdout.strip() or None}


def ratios(pair: dict, names) -> dict:
    """The change/parent ratio of each named metric that both sides of pair carry."""
    values = {side: {name: pair[side].get("metrics", {}).get(name, {}).get("value") for name in names}
              for side in ("parent", "change")}
    return {name: values["change"][name] / values["parent"][name] for name in names
            if values["change"][name] is not None and values["parent"][name]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, each side's median and quartiles and the pairs the change
    won; a run that ended in an error, or lacks the metric, is skipped, and
    a metric that no run carries gets no row."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [p[side].get("metrics", {}).get(name, {}).get("value") for p in pairs]
                  for side in ("parent", "change")}
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side, vals in values.items():
            vals = [v for v in vals if v is not None]
            if vals:
                q1, _, q3 = quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else (vals[0],) * 3
                row[side] = {"median": median(vals), "q1": q1, "q3": q3}
        both = [(a, b) for a, b in zip(values["parent"], values["change"]) if a is not None and b is not None]
        if "parent" in row or "change" in row:
            row["change_better_pairs"] = sum(sign * (b - a) > 0 for a, b in both)
            row["pairs"] = len(both)
            out[name] = row
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--criterion-4", action="store_true",
                      help="time the criterion-4 sweep, both sides of each pair at once, at jobs=1")
    parser.add_argument("--seeds", type=seed_range, help="one seed per pair, as LO-HI (with --workload)")
    parser.add_argument("--pairs", type=int, help="the number of pairs (with --criterion-4)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.criterion_4:
        if args.pairs is None or args.pairs < 1 or args.seeds is not None:
            parser.error("--criterion-4 needs --pairs N with N >= 1 and takes no --seeds")
        name, runs, metrics = "criterion-4-concurrent", [None] * args.pairs, CRITERION_4_METRICS
        command = "python3 -c CRITERION_4 (see scripts/bench_pairs.py), both sides at once"
    else:
        if args.seeds is None or args.pairs is not None:
            parser.error("--workload needs --seeds and takes no --pairs")
        name, runs = args.workload, args.seeds
        metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"] + RAW_METRICS
        command = COMMAND.format(workload=args.workload, seed="SEED")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as cache:
        envs = {side: fresh_bytecode(getattr(args, side), Path(cache, side)) for side in ("parent", "change")}
        for side, env in envs.items():
            warm_up(getattr(args, side), args.workload, env)
        for i, seed in enumerate(runs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            if args.criterion_4:
                pair.update(run_criterion_4_together({side: getattr(args, side) for side in order}, envs, order))
                pair["ratio"] = ratios(pair, ("wall_s", "cpu_s"))
            else:
                for side in order:
                    pair[side] = run_once(getattr(args, side), args.workload, seed, envs[side])
            pairs.append(pair)
            print(json.dumps({"workload": name, "seed": seed, "failed": {
                side: pair[side].get("failed", pair[side].get("error")) for side in order}}), file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": {}}
    for side in ("parent", "change"):
        for rec in (p[side] for p in pairs if "metrics" in p[side]):
            doc.update({f"{side}_sha": rec["git_sha"], "cpu": rec["cpu"], "nproc": rec["nproc"],
                        "python": rec["python"]})
            break
    summary = summarize(pairs, metrics)
    for metric, row in summary.items():
        values = [p["ratio"][metric] for p in pairs if metric in p.get("ratio", {})]
        if values:
            row["median_ratio"] = median(values)
    doc["workloads"][name] = {"command": command, "summary": summary, "pairs": pairs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
