"""Run the benchmark on two checkouts in alternating pairs and write one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload check-all-n6 --seeds 501-510 --out BENCH_19.json

Each pair runs ``bench/run.py --workload W --seed S --seconds 10 --trace 0``
in both checkouts, parent first on odd pairs and change first on even ones,
and keeps the full record each run prints.  The output file gains one entry
per workload, so several calls fill one file: the pairs, and per end-to-end
metric of BENCHMARK.json each side's median and quartiles and the number of
pairs the change won (ties count for neither side).  The host, ``nproc``,
the Python version and both commits come from the records themselves.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


COMMAND = "bench/run.py --workload {workload} --seed {seed} --seconds 10 --trace 0"


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The full record of one benchmark run, or the error it ended with."""
    cmd = [sys.executable, *COMMAND.format(workload=workload, seed=seed).split()]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-2])["record"]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs if "metrics" in p[side]]
                  for side in ("parent", "change")}
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side, vals in values.items():
            if vals:
                q1, _, q3 = quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else (vals[0],) * 3
                row[side] = {"median": median(vals), "q1": q1, "q3": q3}
        both = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
        row["change_better_pairs"] = sum(
            sign * (p["change"]["metrics"][name]["value"] - p["parent"]["metrics"][name]["value"]) > 0 for p in both)
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="one seed per pair, as LO-HI")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed)
        pairs.append(pair)
        print(json.dumps({"workload": args.workload, "seed": seed, "failed": {
            side: pair[side].get("failed", pair[side].get("error")) for side in order}}), file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": {}}
    for side in ("parent", "change"):
        for rec in (p[side] for p in pairs if "metrics" in p[side]):
            doc.update({f"{side}_sha": rec["git_sha"], "cpu": rec["cpu"], "nproc": rec["nproc"],
                        "python": rec["python"]})
            break
    doc["workloads"][args.workload] = {
        "command": COMMAND.format(workload=args.workload, seed="SEED"),
        "summary": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
