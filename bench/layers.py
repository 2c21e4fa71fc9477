"""Per-layer probes of the traced run.

Every traced run times each layer on the seeded inputs of the four workloads,
with one span per library call.  The per-layer metrics are read off those
spans, so the same names appear whichever workload the run is for.
"""
from __future__ import annotations

import random
from statistics import fmean

from zfpoly import analysis, closed_forms, forcing, forts, graphs, polynomial, sweeps

LAYERS = ("graphs", "forcing", "polynomial", "closed_forms", "forts", "analysis", "sweeps", "cli")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list.
METRICS = {
    "graphs.graph_from_edge_mask.us": ("us", "lower"),
    "graphs.has_hamiltonian_path.us": ("us", "lower"),
    "graphs.connected_components.us": ("us", "lower"),
    "forcing.closure_table.n7_us": ("us", "lower"),
    "forcing.closure_table.n20_ms": ("ms", "lower"),
    "polynomial.zf_polynomial.n7_us": ("us", "lower"),
    "polynomial.zf_polynomial_by_components.n7_us": ("us", "lower"),
    "polynomial.zf_polynomial.n19_ms": ("ms", "lower"),
    "polynomial.zf_polynomial.n20_ms": ("ms", "lower"),
    "polynomial.zf_polynomial.n21_ms": ("ms", "lower"),
    "polynomial.zf_polynomial.table_n21_ms": ("ms", "lower"),
    "polynomial.subsets_per_s.table": ("1/s", "higher"),
    "polynomial.subsets_per_s.sweep": ("1/s", "higher"),
    "polynomial.zfs_share": ("count", "higher"),
    "closed_forms.threshold_zfs_check.us": ("us", "lower"),
    "closed_forms.poly_threshold.us": ("us", "lower"),
    "closed_forms.count_consecutive_selections.us": ("us", "lower"),
    "closed_forms.poly_wheel.us": ("us", "lower"),
    "forts.enumerate_forts.n7_us": ("us", "lower"),
    "forts.min_fort_cover.n7_us": ("us", "lower"),
    "forts.enumerate_forts.n8_14_ms": ("ms", "lower"),
    "forts.min_fort_cover.n8_14_ms": ("ms", "lower"),
    "forts.forts_per_graph": ("count", "lower"),
    "forts.fort_yield": ("count", "higher"),
    "analysis.cycle_polynomial_class.n6_ms": ("ms", "lower"),
    **{f"sweeps.random_sweep.{check}.us": ("us", "lower") for check in sweeps.CHECK_KEYS + ("all",)},
    "sweeps.exhaustive_sweep.n6_j1_s": ("s", "lower"),
    "sweeps.exhaustive_sweep.n6_j2_s": ("s", "lower"),
    "sweeps.parallel_efficiency": ("count", "higher"),
    "cli.main.check_all_n6_s": ("s", "lower"),
    "sweeps.run_suite.all_n6_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_pct": ("%", "lower"),
}


# Timing metrics read straight off the spans: name -> (span name, span key,
# units per second).  Each is the mean duration of those spans.
SPAN_METRICS = {
    **{f"graphs.{f}.us": (f"graphs.{f}", "n7", 1e6)
       for f in ("graph_from_edge_mask", "has_hamiltonian_path", "connected_components")},
    **{f"{f}.n7_us": (f, "n7", 1e6)
       for f in ("forcing.closure_table", "polynomial.zf_polynomial",
                 "polynomial.zf_polynomial_by_components", "forts.enumerate_forts", "forts.min_fort_cover")},
    "forcing.closure_table.n20_ms": ("forcing.closure_table", "n20", 1e3),
    **{f"polynomial.zf_polynomial.{k}_ms": ("polynomial.zf_polynomial", k, 1e3)
       for k in ("n19", "n20", "n21", "table_n21")},
    **{f"closed_forms.{f}.us": (f"closed_forms.{f}", "", 1e6)
       for f in ("threshold_zfs_check", "poly_threshold", "count_consecutive_selections", "poly_wheel")},
    **{f"forts.{f}.n8_14_ms": (f"forts.{f}", "n8_14", 1e3) for f in ("enumerate_forts", "min_fort_cover")},
    "analysis.cycle_polynomial_class.n6_ms": ("analysis.cycle_polynomial_class", "n6", 1e3),
    **{f"sweeps.random_sweep.{c}.us": ("sweeps.random_sweep", c, 1e6) for c in sweeps.CHECK_KEYS + ("all",)},
    **{f"sweeps.exhaustive_sweep.n6_j{j}_s": ("sweeps.exhaustive_sweep", f"n6_j{j}", 1) for j in (1, 2)},
    "cli.main.check_all_n6_s": ("cli.main", "workload", 1),
    "sweeps.run_suite.all_n6_s": ("sweeps.run_suite", "all_n6", 1),
}


def threshold_string(rng: random.Random, length: int) -> str:
    """A random canonical connected generating string: first two symbols equal, last '1'."""
    if length == 2:
        return "11"
    first = rng.choice("01")
    return first * 2 + "".join(rng.choice("01") for _ in range(length - 3)) + "1"


class Probes:
    """Runs the layer probes under one tracer and gates the outputs it can check.

    ``run`` makes the calls; ``metrics`` then reads the per-layer values off
    the spans, given how to turn a span's (start, end) into seconds.
    """

    def __init__(self, tracer, workloads: dict, params: dict, seed: int):
        self.tr = tracer
        self.ws = workloads
        self.p = params
        self.rng = random.Random(f"probes:{seed}")
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def gate(self, failures: int) -> None:
        self.attempted += 1
        self.failed += failures

    def run(self) -> None:
        for probe in (self.corpus, self.closed_forms, self.forts_n8_14, self.analysis,
                      self.exhaustive, self.suites, self.poly_large):
            with self.tr.span("bench.probe", probe.__name__):
                probe()

    def metrics(self, duration) -> dict[str, float]:
        def mean(name: str, key: str) -> float:
            return fmean(duration(*span) for span in self.tr.intervals(name, key))

        def total(name: str, keys) -> float:
            return sum(duration(*span) for key in keys for span in self.tr.intervals(name, key))

        v = {metric: mean(name, key) * unit for metric, (name, key, unit) in SPAN_METRICS.items()}
        v.update(self.counts)
        poly = self.ws["poly-large"]
        for engine, keys in (("table", ("n19", "n20")), ("sweep", ("n21",))):
            subsets = sum(1 << g.n for key, g, _ in poly.graphs if key in keys)
            v[f"polynomial.subsets_per_s.{engine}"] = subsets / total("polynomial.zf_polynomial", keys)
        v["sweeps.parallel_efficiency"] = (v["sweeps.exhaustive_sweep.n6_j1_s"]
                                           / (2 * v["sweeps.exhaustive_sweep.n6_j2_s"]))
        self_times = self.tr.self_times(duration)
        for layer in LAYERS:
            v[f"{layer}.self_s"] = self_times.get(layer, 0.0)
        return v

    def corpus(self) -> None:
        """Every kernel the n = 7 corpus uses, one call per sample graph."""
        tr = self.tr
        specs = self.ws["corpus-n7"].specs[:self.p["corpus_graphs"]]
        gs = []
        for n, emask in specs:
            with tr.span("graphs.graph_from_edge_mask", "n7"):
                gs.append(graphs.graph_from_edge_mask(n, emask))
        for g in gs:
            with tr.span("graphs.has_hamiltonian_path", "n7"):
                graphs.has_hamiltonian_path(g)
        for g in gs:
            with tr.span("graphs.connected_components", "n7"):
                graphs.connected_components(g)
        for g in gs:
            with tr.span("forcing.closure_table", "n7"):
                forcing.closure_table(g)
        polys = []
        for g in gs:
            with tr.span("polynomial.zf_polynomial", "n7"):
                polys.append(polynomial.zf_polynomial(g))
        for g, poly in zip(gs, polys):
            with tr.span("polynomial.zf_polynomial_by_components", "n7"):
                by_components = polynomial.zf_polynomial_by_components(g)
            self.gate(int(by_components != poly))
        fort_count = 0
        for g in gs:
            with tr.span("forts.enumerate_forts", "n7"):
                fort_count += len(forts.enumerate_forts(g).forts)
        for g, poly in zip(gs, polys):
            with tr.span("forts.min_fort_cover", "n7"):
                size, _ = forts.min_fort_cover(g)
            self.gate(int(size != poly.zero_forcing_number()))
        for check in sweeps.CHECK_KEYS + ("all",):
            checks = sweeps.CHECK_KEYS if check == "all" else (check,)
            for spec in specs:
                with tr.span("sweeps.random_sweep", check):
                    count, records = sweeps.random_sweep(checks, [spec], jobs=1)
                self.gate((count != 1) + len(records))
        subsets = sum(1 << g.n for g in gs)
        self.counts["polynomial.zfs_share"] = sum(sum(p.coeffs) for p in polys) / subsets
        self.counts["forts.forts_per_graph"] = fort_count / len(gs)
        self.counts["forts.fort_yield"] = fort_count / (subsets - len(gs))  # the scan skips the empty set

    def closed_forms(self) -> None:
        """Closed-form kernels on seeded arguments within the suite's max_n."""
        tr, rng = self.tr, self.rng
        max_n = self.ws["closed-forms"].max_n
        calls = self.p["closed_form_calls"]
        strings = [threshold_string(rng, rng.randint(2, max_n)) for _ in range(calls)]
        for b in strings:
            mask = rng.getrandbits(len(b))
            with tr.span("closed_forms.threshold_zfs_check"):
                closed_forms.threshold_zfs_check(b, mask)
        for b in strings[:calls // 10]:
            with tr.span("closed_forms.poly_threshold"):
                closed_forms.poly_threshold(b)
        for _ in range(calls):
            n = rng.randint(3, 14)
            k, m = rng.randint(0, n), rng.choice((3, 4))
            with tr.span("closed_forms.count_consecutive_selections"):
                closed_forms.count_consecutive_selections(n, k, m)
        for _ in range(calls // 10):
            n = rng.randint(5, max_n)
            with tr.span("closed_forms.poly_wheel"):
                closed_forms.poly_wheel(n)

    def forts_n8_14(self) -> None:
        """Fort scan and hitting set on the random `ip` specs of the check-all suite."""
        count, lo, hi = self.p["ip_specs"]
        for n, emask in sweeps.random_graph_specs(count, lo, hi, self.ws["check-all-n6"].seed):
            g = graphs.graph_from_edge_mask(n, emask)
            with self.tr.span("forts.enumerate_forts", "n8_14"):
                forts.enumerate_forts(g)
            with self.tr.span("forts.min_fort_cover", "n8_14"):
                forts.min_fort_cover(g)

    def analysis(self) -> None:
        n = self.p["cycle_class_n"]
        with self.tr.span("analysis.cycle_polynomial_class", "n6"):
            found = analysis.cycle_polynomial_class(n)
        self.gate(int(len(found) != len(sweeps.expected_cycle_class(n))))

    def exhaustive(self) -> None:
        n = self.p["exhaustive_n"]
        graph_count = sum(1 << (k * (k - 1) // 2) for k in range(1, n + 1))
        for jobs in (1, 2):
            with self.tr.span("sweeps.exhaustive_sweep", f"n6_j{jobs}"):
                count, records = sweeps.exhaustive_sweep(sweeps.CHECK_KEYS, n, jobs=jobs)
            self.gate(len(records) + (count != graph_count))

    def suites(self) -> None:
        """The check-all user path, through the CLI and through run_suite directly."""
        w = self.ws["check-all-n6"]
        self.gate(w.failures(0, w.call(0, self.tr)))
        with self.tr.span("sweeps.run_suite", "all_n6"):
            report = sweeps.run_suite("all", max_n=w.max_n, seed=w.seed, jobs=w.jobs)
        self.gate(len(report["failures"]) + (not report["passed"] or report["graphs_checked"] != w.items))

    def poly_large(self) -> None:
        """The poly-large graphs (auto engine), the n = 21 graph forced onto the
        table engine, and the closure table alone at n = 20."""
        tr, w = self.tr, self.ws["poly-large"]
        for key, g, coeffs in w.graphs:
            with tr.span("polynomial.zf_polynomial", key):
                poly = polynomial.zf_polynomial(g)
            self.gate(int(poly.coeffs != coeffs))
        g21, coeffs21 = next((g, c) for key, g, c in w.graphs if key == "n21")
        with tr.span("polynomial.zf_polynomial", "table_n21"):
            poly = polynomial.zf_polynomial(g21, engine="table")
        self.gate(int(poly.coeffs != coeffs21))
        with tr.span("forcing.closure_table", "n20"):
            forcing.closure_table(next(g for key, g, _ in w.graphs if key == "n20"))
