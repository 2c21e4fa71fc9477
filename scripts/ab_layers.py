"""Time the sweep's batch kernel, per-graph path, flag-table kernel and suite runner of two checkouts in one process, call by call.

    python3 scripts/ab_layers.py --parent ../parent --change . --out BENCH_26.json
    python3 scripts/ab_layers.py --parent . --change . --batches 2

Each checkout's ``src/zfpoly`` is imported into this process under a package
name of its own, ``zfpoly_parent`` and ``zfpoly_change``, so both sides run in
the same host speed phase.  Per batch, each kernel runs once on each side,
the side that runs first alternating from batch to batch, and the ratio of
the change's time to the parent's is kept.  The kernels are
``sweeps._check_batch`` with no checks, with the criterion-4 set (the checks
of the acceptance suite's criterion-4 sweep: every check but reversal),
with every check, and with reversal or multiplicativity alone.  The batches
are the sweep's own batches at n = 6 and batches of 2^10 graphs at n = 7
drawn with the fixed seed SEED; ``--batches N`` keeps the first N of
each.  Each side's process memos (``sweeps._tallies``, ``sweeps._order_counts``,
``sweeps._part_product`` and ``sweeps._facts``, where the side has them) are
emptied before every timed call, so that no call reads what an earlier one
left there.  The order tables below the batch's order (``_order_counts(k)``,
k < n, where the side has them) are then built again untimed, so a call pays
for its component products and coefficient facts but not for the tables
they read, which a sweep builds once per order.  Before anything is timed, each
side runs every check once on the batch of each order that holds the
labeled n-cycle, at the timed width, so that every lazy per-order constant
is built, whatever graph or width builds it.

``sweep.n6`` then times SWEEP_PASSES passes of every check over the n = 6
batches: each pass starts both sides from emptied memos, runs each batch on
both sides, the side that runs first alternating from batch to batch, and
keeps the ratio of the sides' totals, which is what a memo kept across the
batches of a sweep saves.  ``random_sweep.n7`` times the per-graph path, the
call that the benchmark's corpus-n7 workload times: SWEEP_PASSES passes of
``random_sweep(CHECK_KEYS, [spec])`` over CORPUS_SPECS uniform labeled
n = 7 graphs drawn with SEED, alternating the side that runs first spec
by spec, with the ratio of the sides' totals per pass.  Two passes time the
flag-table kernel in the same way, call by call, with each call's result
compared: ``polynomial._closure_tally.n7`` calls ``_closure_tally`` on the
adjacency of each of those specs, its one-chunk path, and
``polynomial.zf_polynomial.large`` calls ``zf_polynomial`` on the graphs of
the benchmark's poly-large mix, the cycle and path at n = 19 and 20 and the
wheel at n = 20 LARGE_REPEATS times each, then the cycle at n = 21 once, each
relabeled by a shuffle drawn with SEED; ``polynomial.zf_polynomial.random``
calls it on seeded G(n, p) graphs beyond that mix, RANDOM_GRAPHS for each
order n = 13-20 of RANDOM_ORDERS and each density of RANDOM_DENSITIES,
drawn with SEED, and ``polynomial.zf_polynomial.random.n13_16`` on those
with n <= 16 alone, whose tables span at most 16 chunks;
``polynomial._closure_tally.joined.n13_16`` calls ``_closure_tally`` on the
adjacencies of those n <= 16 graphs, the joined mode past one chunk that
the forts, the fort cover and the per-graph ip checks at n = 13-14 read;
``polynomial.zf_polynomial.unbanded`` calls it on graphs that
``_band_order`` skips: for each order n = 17-22 of UNBANDED_ORDERS,
UNBANDED_GRAPHS random recursive trees (vertex v joined to a uniform
earlier vertex) and as many disjoint unions of two G(m, UNION_DENSITY) on
the halves of n, each relabeled by a shuffle, drawn with SEED; in each
pass both sides take the same graphs, built by the change's package.
``run_suite.all.n6`` times SWEEP_PASSES calls of ``run_suite("all",
max_n=6, jobs=min(2, CPUs))`` on each side, the side that runs first
alternating from call to call, with
the ratio of each pair of calls and the reports compared without
``elapsed_s``: the user path with its process pools, which the
``_check_batch`` kernels do not see.  The untimed warm-up has built the
n = 6 cycle orbit in this process on both sides, so the pools' workers
inherit it on both sides.

Per kernel and order the summary gives the median ratio, the calls the change
won (ratio below 1), the call count and the exact two-sided sign-test p-value
of the wins, ties dropped.  With ``--out`` it goes under ``layers`` in that
file, beside what the file holds; without, to stdout.

The rule for a claim: a kernel is faster by a fraction r only when its sign
test gives p < 0.01 and its median ratio is at most 1 - r.  A p at or above
0.01 supports no claim either way, and a time is never compared across runs.

The exit status is 1 if the two sides return different records on any
call or pass, else 0.  Standard library only.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import random
import subprocess
import sys
from math import comb
from pathlib import Path
from statistics import median
from time import perf_counter_ns

N7_BATCH_BITS = 10
SEED = 2601  # seed of the n = 7 batches and specs and of the relabelings
SWEEP_PASSES = 16
CORPUS_SPECS = 1000
LARGE_GRAPHS = (("cycle", 19), ("path", 19), ("cycle", 20), ("path", 20), ("wheel", 20), ("cycle", 21))
LARGE_REPEATS = 5  # per pass, of each graph but the n = 21 cycle, as in a poly-large pass
RANDOM_ORDERS = range(13, 21)
RANDOM_DENSITIES = (0.1, 0.25, 0.5)
RANDOM_GRAPHS = 2  # per order and density
UNBANDED_ORDERS = range(17, 23)
UNBANDED_GRAPHS = 2  # per order, trees and unions each
UNION_DENSITY = 0.3


def load_sweeps(tree: Path, name: str):
    """The sweeps module of tree's src/zfpoly, imported as package name."""
    package = (tree / "src" / "zfpoly").resolve()
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".sweeps")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses."""
    calls = wins + losses
    tail = sum(comb(calls, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** calls)


def summarize(ratios: list[float]) -> dict:
    wins = sum(r < 1 for r in ratios)
    losses = sum(r > 1 for r in ratios)
    return {"median_ratio": median(ratios), "change_wins": wins, "calls": len(ratios),
            "sign_test_p": sign_test_p(wins, losses)}


def batches(sweeps, count: int) -> list[tuple[int, int, int]]:
    """(n, b, base) of the first count sweep batches at n = 6, then of count
    seeded 2^10-graph batches at n = 7."""
    b6 = sweeps._batch_bits(6)
    rng = random.Random(SEED)
    return ([(6, b6, base) for base in range(0, 1 << 15, 1 << b6)][:count]
            + [(7, N7_BATCH_BITS, rng.randrange(0, 1 << 21, 1 << N7_BATCH_BITS)) for _ in range(count)])


def corpus(count: int) -> list[tuple[int, int]]:
    """count uniform labeled n = 7 graph specs, drawn with SEED."""
    rng = random.Random(SEED)
    return [(7, rng.getrandbits(comb(7, 2))) for _ in range(count)]


def large_graphs(sweeps) -> list:
    """The graphs of LARGE_GRAPHS, each relabeled by a shuffle drawn with
    SEED, in the order of one pass: all but the last LARGE_REPEATS times
    over, then the last, the n = 21 cycle, once."""
    rng = random.Random(SEED)
    graphs = []
    for family, n in LARGE_GRAPHS:
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(sweeps.from_edge_list(n, [(perm[u], perm[v]) for u, v in getattr(sweeps, family)(n).edges()]))
    return graphs[:-1] * LARGE_REPEATS + graphs[-1:]


def random_graphs(sweeps) -> list:
    """RANDOM_GRAPHS graphs G(n, p) for each order n of RANDOM_ORDERS and
    density p of RANDOM_DENSITIES, each pair of vertices an edge with
    probability p, drawn with SEED."""
    rng = random.Random(SEED)
    return [sweeps.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            for n in RANDOM_ORDERS for p in RANDOM_DENSITIES for _ in range(RANDOM_GRAPHS)]


def unbanded_graphs(sweeps) -> list:
    """For each order n of UNBANDED_ORDERS, UNBANDED_GRAPHS random
    recursive trees and as many disjoint unions of two G(m, UNION_DENSITY)
    on n // 2 and n - n // 2 vertices, each relabeled by a shuffle, drawn
    with SEED: graphs whose band order's first n - 12 vertices cover one
    branch or the first component and do not force."""
    rng = random.Random(SEED)
    graphs = []
    for n in UNBANDED_ORDERS:
        halves = ((0, n // 2), (n // 2, n - n // 2))
        for _ in range(UNBANDED_GRAPHS):
            tree = [(v, rng.randrange(v)) for v in range(1, n)]
            union = [(s + u, s + v) for s, m in halves for u in range(m) for v in range(u + 1, m)
                     if rng.random() < UNION_DENSITY]
            for edges in (tree, union):
                perm = rng.sample(range(n), n)
                graphs.append(sweeps.from_edge_list(n, [(perm[u], perm[v]) for u, v in edges]))
    return graphs


def cycle_batch(sweeps, n: int, b: int) -> int:
    """The base of the batch of 2^b graphs that holds the n-cycle 0-1-...-(n-1)-0."""
    cycle = sum(1 << i for i, (u, v) in enumerate(sweeps.edge_pair_order(n)) if v - u in (1, n - 1))
    return cycle >> b << b


def kernels(keys) -> dict:
    """The check set of each timed kernel, from the check keys."""
    keys = frozenset(keys)
    return {"none": frozenset(), "criterion-4": keys - {"reversal"}, "all": keys,
            **{check: keys & {check} for check in ("reversal", "multiplicativity")}}


def clear_memos(sweeps) -> None:
    """Empty the process memos of sweeps, where it has them."""
    for name in ("_tallies", "_order_counts", "_part_product", "_facts"):
        memo = getattr(sweeps, name, None)
        if memo is not None:
            memo.cache_clear()


def build_order_tables(sweeps, n: int) -> None:
    """Build the order tables of sweeps below n, where it has them."""
    tables = getattr(sweeps, "_order_counts", None)
    if tables is not None:
        for k in range(1, n):
            tables(k)


def suite_report(sweeps, jobs: int) -> dict:
    """The report of run_suite("all", max_n=6, jobs=jobs), less its elapsed_s."""
    report = sweeps.run_suite("all", max_n=6, jobs=jobs)
    return {key: value for key, value in report.items() if key != "elapsed_s"}


def timed(sides: dict, order: tuple, n: int, call) -> tuple[float, bool]:
    """The change/parent time ratio of call(sweeps), each side from emptied
    memos and rebuilt order tables below n, in order, and whether the two
    sides' results differ."""
    ns, results = {}, {}
    for side in order:
        clear_memos(sides[side])
        build_order_tables(sides[side], n)
        t0 = perf_counter_ns()
        results[side] = call(sides[side])
        ns[side] = perf_counter_ns() - t0
    return ns["change"] / ns["parent"], results["parent"] != results["change"]


def passes(sides: dict, calls: list, run_one) -> tuple[list[float], int]:
    """The change/parent ratio of the sides' totals over calls, run_one(
    sweeps, call) for each, in each of SWEEP_PASSES passes that start both
    sides from emptied memos and alternate the side that runs first call by
    call, and the number of passes whose results differ."""
    ratios, mismatches = [], 0
    for i in range(SWEEP_PASSES):
        for sweeps in sides.values():
            clear_memos(sweeps)
        ns, results = dict.fromkeys(sides, 0), {side: [] for side in sides}
        for j, call in enumerate(calls):
            for side in ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent"):
                t0 = perf_counter_ns()
                results[side].append(run_one(sides[side], call))
                ns[side] += perf_counter_ns() - t0
        mismatches += results["parent"] != results["change"]
        ratios.append(ns["change"] / ns["parent"])
    return ratios, mismatches


def run(sides: dict, work: list[tuple[int, int, int]], specs: list[tuple[int, int]]) -> tuple[dict, int]:
    """Per kernel and order, the change/parent time ratio of each call, and
    of each pass under sweep.n6, random_sweep.n7, polynomial._closure_tally.n7,
    polynomial.zf_polynomial.large, polynomial.zf_polynomial.random and its
    n13_16 part, polynomial._closure_tally.joined.n13_16 on that part,
    polynomial.zf_polynomial.unbanded and run_suite.all.n6, and
    the number of calls and passes whose results differ."""
    change = sides["change"]
    sets = kernels(change.CHECK_KEYS)
    adjs = [change._edge_mask_adj(change.edge_pair_order(n), n, emask) for n, emask in specs]
    large = large_graphs(change)
    randoms = random_graphs(change)
    for n, b in sorted({(n, b) for n, b, _ in work}):  # build each side's lazy per-order constants untimed
        for sweeps in sides.values():
            sweeps._check_batch(sets["all"], n, b, cycle_batch(sweeps, n, b))
    for sweeps in sides.values():
        sweeps.random_sweep(sets["all"], specs[:1])
        sweeps.zf_polynomial(large[0])  # and the constants of the 2^12-bit chunks
    ratios: dict = {}
    mismatches = 0
    for i, (n, b, base) in enumerate(work):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for kernel, checks in sets.items():
            ratio, differ = timed(sides, order, n, lambda sweeps: sweeps._check_batch(checks, n, b, base))
            mismatches += differ
            ratios.setdefault(f"sweeps._check_batch.{kernel}.n{n}", []).append(ratio)
    sweep = [(n, b, base) for n, b, base in work if n == 6]
    jobs = min(2, os.cpu_count() or 1)
    for name, calls, run_one in (
            ("sweep.n6", sweep, lambda sweeps, batch: sweeps._check_batch(sets["all"], *batch)),
            ("random_sweep.n7", specs, lambda sweeps, spec: sweeps.random_sweep(sets["all"], [spec])),
            ("polynomial._closure_tally.n7", adjs, lambda sweeps, adj: sweeps._closure_tally(adj, 7)),
            ("polynomial.zf_polynomial.large", large, lambda sweeps, g: sweeps.zf_polynomial(g).coeffs),
            ("polynomial.zf_polynomial.random", randoms, lambda sweeps, g: sweeps.zf_polynomial(g).coeffs),
            ("polynomial.zf_polynomial.random.n13_16", [g for g in randoms if g.n <= 16],
             lambda sweeps, g: sweeps.zf_polynomial(g).coeffs),
            ("polynomial._closure_tally.joined.n13_16", [g for g in randoms if g.n <= 16],
             lambda sweeps, g: sweeps._closure_tally(g.adj, g.n)),
            ("polynomial.zf_polynomial.unbanded", unbanded_graphs(change),
             lambda sweeps, g: sweeps.zf_polynomial(g).coeffs),
            ("run_suite.all.n6", [jobs], suite_report)):
        ratios[name], differ = passes(sides, calls, run_one)
        mismatches += differ
    return ratios, mismatches


def git_sha(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--batches", type=int, default=64, help="batches per order (default 64; n = 6 has 32)")
    parser.add_argument("--out", type=Path, help="JSON file to gain the layers entry")
    args = parser.parse_args(argv)
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    sides = {side: load_sweeps(getattr(args, side), f"zfpoly_{side}") for side in ("parent", "change")}
    ratios, mismatches = run(sides, batches(sides["change"], args.batches), corpus(CORPUS_SPECS))
    summary = {name: summarize(values) for name, values in ratios.items()}
    for name, row in summary.items():
        print(f"{name:40} ratio {row['median_ratio']:.3f}  won {row['change_wins']}/{row['calls']}"
              f"  p {row['sign_test_p']:.2g}", file=sys.stderr)
    entry = {"command": f"python3 scripts/ab_layers.py --parent PARENT --change CHANGE --batches {args.batches}",
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "machine": platform.machine(), "parent_sha": git_sha(args.parent),
             "change_sha": git_sha(args.change), "seed": SEED, "records_differ": mismatches,
             "kernels": summary}
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc["layers"] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(entry, indent=1))
    if mismatches:
        print(f"the two sides' records differ on {mismatches} calls", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
