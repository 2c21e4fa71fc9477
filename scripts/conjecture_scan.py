#!/usr/bin/env python3
"""Probe the unimodality and path-domination conjectures on random graphs.

Draws seeded random graphs beyond the exhaustively checked range and reports
any coefficient vector that breaks either conjecture.  Exit code stays 0
either way: a counterexample to an open conjecture is a finding to record,
not an error.

Example:
    python scripts/conjecture_scan.py --count 2000 --min-n 10 --max-n 16 --jobs 2
"""
import argparse
import json
import os
import sys
import time
from collections import Counter

from zfpoly import graph_from_edge_mask, poly_path, zf_polynomial
from zfpoly.polynomial import CAP_ENV_VAR, enumeration_cap
from zfpoly.sweeps import CONJECTURE_CHECKS, random_graph_specs, random_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--min-n", type=int, default=8)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="write counterexamples as JSON lines")
    args = parser.parse_args()
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs must be between 1 and the {cpus} available CPUs, got {args.jobs}")
    if args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")
    if not 1 <= args.min_n <= args.max_n:
        parser.error(f"need 1 <= --min-n <= --max-n, got --min-n {args.min_n} --max-n {args.max_n}")
    cap = enumeration_cap()
    if args.max_n > cap:
        parser.error(f"--max-n {args.max_n} exceeds the enumeration cap {cap} ({CAP_ENV_VAR})")

    specs = random_graph_specs(args.count, args.min_n, args.max_n, args.seed)
    sizes = Counter(n for n, _ in specs)
    print(f"scanning {args.count} random graphs, orders "
          + ", ".join(f"{n}:{c}" for n, c in sorted(sizes.items())))

    t0 = time.time()
    checked, records = random_sweep(CONJECTURE_CHECKS, specs, jobs=args.jobs)
    elapsed = time.time() - t0
    print(f"checked {checked} graphs in {elapsed:.1f}s "
          f"({1000 * elapsed / max(checked, 1):.1f} ms/graph)")

    if not records:
        print("no counterexamples: every polynomial was unimodal and path-dominated")
        return 0

    print(f"{len(records)} counterexample(s):")
    sink = open(args.out, "w") if args.out else None
    for rec in records:
        n, emask = rec["n"], rec["graph"]
        coeffs = zf_polynomial(graph_from_edge_mask(n, emask)).coeffs
        line = {
            "check": rec["check"],
            "n": n,
            "edge_mask": emask,
            "coeffs": [str(c) for c in coeffs],
            "path_coeffs": [str(c) for c in poly_path(n).coeffs],
        }
        print(f"  {rec['check']}: n={n} edge_mask={emask}")
        print(f"    coeffs      = {list(coeffs)}")
        if sink:
            sink.write(json.dumps(line) + "\n")
    if sink:
        sink.close()
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
