"""The four benchmark workloads: seeded inputs, one timed call, output gate.

Each workload builds its inputs in ``__init__`` (this is the set-up that
``setup_s`` measures) and then exposes:

- ``call(i, tracer)``: the i-th timed call into the library's public API;
- ``input_of(i)``: which input the i-th call runs on; calls cycle over the
  inputs, so each input is timed several times;
- ``items``: graphs (or suite items) one call checks, and ``subsets_of(j)``
  where the subsets input j enumerates are known;
- ``failures(i, output)``: oracle mismatches and failure records of one call,
  evaluated after the timed region.

``plant`` corrupts one expected value so that tests can see the gate fire.
"""
from __future__ import annotations

import contextlib
import io
import json
import random

from zfpoly import cli, closed_forms, graphs, polynomial, sweeps

# "full" is what BENCHMARK.json runs; "tiny" keeps every code path and metric
# name but shrinks the inputs, for the smoke test.
PARAMS = {
    "full": {
        "corpus-n7": {"graphs": 1000, "overhead_calls": 1000},
        # (metric key, family, order).  Keys n19/n20 take the table engine and
        # n21 the sweep engine, one past the library's table cap of 20.  A pass
        # times each table graph `table_repeats` times and the n21 graph once.
        "poly-large": {"graphs": (("n19", "cycle", 19), ("n19", "path", 19), ("n20", "cycle", 20),
                                  ("n20", "path", 20), ("n20", "wheel", 20), ("n21", "cycle", 21)),
                       "table_repeats": 5, "overhead_calls": 5},
        "closed-forms": {"max_n": 10},
        "check-all-n6": {"max_n": 6, "jobs": 2, "min_calls": 3},
        "probes": {"corpus_graphs": 600, "closed_form_calls": 2000, "ip_specs": (100, 8, 14),
                   "cycle_class_n": 6, "exhaustive_n": 6},
    },
    "tiny": {
        "corpus-n7": {"graphs": 40, "overhead_calls": 20},
        "poly-large": {"graphs": (("n19", "cycle", 8), ("n19", "path", 8), ("n20", "cycle", 9),
                                  ("n20", "path", 9), ("n20", "wheel", 9), ("n21", "cycle", 10)),
                       "table_repeats": 3, "overhead_calls": 5},
        "closed-forms": {"max_n": 5},
        "check-all-n6": {"max_n": 3, "jobs": 2, "min_calls": 1},
        "probes": {"corpus_graphs": 10, "closed_form_calls": 50, "ip_specs": (5, 8, 9),
                   "cycle_class_n": 4, "exhaustive_n": 4},
    },
}

# Oracle values for the two suites, by max_n: the instance count
# run_closed_forms_suite must report, and the item count of `check --suite all`.
CLOSED_FORMS_INSTANCES = {5: 274, 10: 925}
CHECK_ALL_ITEMS = {3: 858, 6: 34777}

FAMILIES = {
    "wheel": (graphs.wheel, closed_forms.poly_wheel),
    "cycle": (graphs.cycle, closed_forms.poly_cycle),
    "path": (graphs.path, closed_forms.poly_path),
}


def relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    """The graph with its vertices permuted by a seeded shuffle."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class CorpusN7:
    """Uniform random labeled 7-vertex graphs, all theorem checks, one call per graph."""

    n = 7

    def __init__(self, p: dict, rng: random.Random, plant: bool):
        bits = self.n * (self.n - 1) // 2
        self.specs = [(self.n, rng.getrandbits(bits)) for _ in range(p["graphs"])]
        self.calls_per_pass = len(self.specs)
        self.overhead_calls = p["overhead_calls"]
        self.items = 1
        self.plant = plant
        # fill the sweep layer's per-order constants before anything is timed
        sweeps.random_sweep(sweeps.CHECK_KEYS, self.specs[:1])

    def input_of(self, i: int) -> int:
        return i % len(self.specs)

    def subsets_of(self, j: int) -> int:
        return 1 << self.n

    def call(self, i: int, tracer):
        with tracer.span("sweeps.random_sweep", "workload"):
            return sweeps.random_sweep(sweeps.CHECK_KEYS, [self.specs[self.input_of(i)]], jobs=1)

    def failures(self, i: int, output) -> int:
        count, records = output
        expected = 2 if self.plant and self.input_of(i) == 0 else 1
        return (count != expected) + len(records)


class PolyLarge:
    """Relabeled wheels, cycles and paths at n = 19-21 through zf_polynomial (auto engine)."""

    def __init__(self, p: dict, rng: random.Random, plant: bool):
        self.graphs = []
        for key, family, n in p["graphs"]:
            build, closed = FAMILIES[family]
            self.graphs.append((key, relabel(build(n), rng), closed(n).coeffs))
        if plant:
            key, g, coeffs = self.graphs[0]
            self.graphs[0] = (key, g, (coeffs[0] + 1,) + coeffs[1:])
        table = [j for j, (key, _, _) in enumerate(self.graphs) if key != "n21"]
        self.order = table * p["table_repeats"] + [j for j in range(len(self.graphs)) if j not in table]
        self.calls_per_pass = len(self.order)
        self.overhead_calls = p["overhead_calls"]
        self.items = 1

    def input_of(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def subsets_of(self, j: int) -> int:
        return 1 << self.graphs[j][1].n

    def call(self, i: int, tracer):
        key, g, _ = self.graphs[self.input_of(i)]
        with tracer.span("polynomial.zf_polynomial", key):
            return polynomial.zf_polynomial(g)

    def failures(self, i: int, output) -> int:
        return int(output.coeffs != self.graphs[self.input_of(i)][2])


class ClosedForms:
    """The closed-forms suite (criterion 2) at a fixed max_n; it takes no seeded input."""

    def __init__(self, p: dict, rng: random.Random, plant: bool):
        self.max_n = p["max_n"]
        self.items = CLOSED_FORMS_INSTANCES[self.max_n]
        self.expected = self.items + plant
        self.calls_per_pass = self.overhead_calls = 1

    def input_of(self, i: int) -> int:
        return 0

    def call(self, i: int, tracer):
        with tracer.span("sweeps.run_closed_forms_suite", "workload"):
            return sweeps.run_closed_forms_suite(max_n=self.max_n, jobs=1)

    def failures(self, i: int, output) -> int:
        count, records = output
        return len(records) + (count != self.expected)


class CheckAllN6:
    """`zfpoly check --suite all --max-n 6 --jobs 2` in-process, stdout parsed."""

    def __init__(self, p: dict, rng: random.Random, plant: bool):
        self.max_n = p["max_n"]
        self.jobs = p["jobs"]
        self.seed = rng.randrange(1 << 31)
        self.argv = ["check", "--suite", "all", "--max-n", str(self.max_n),
                     "--seed", str(self.seed), "--jobs", str(self.jobs)]
        self.items = CHECK_ALL_ITEMS[self.max_n]
        self.expected = self.items + plant
        # a call takes about 6 s; a run takes the median of several
        self.calls_per_pass = p["min_calls"]
        self.overhead_calls = 1

    def input_of(self, i: int) -> int:
        return 0

    def call(self, i: int, tracer):
        out = io.StringIO()
        with tracer.span("cli.main", "workload"), contextlib.redirect_stdout(out):
            rc = cli.main(self.argv)
        return rc, out.getvalue()

    def failures(self, i: int, output) -> int:
        """Failure records, plus one if the exit code or the summary record is wrong."""
        rc, text = output
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        summaries = [r for r in records if r.get("record") == "summary"]
        ok = (rc == 0 and len(summaries) == 1 and summaries[0]["passed"] is True
              and summaries[0]["graphs_checked"] == self.expected)
        return sum(1 for r in records if r.get("record") == "failure") + (not ok)


WORKLOADS = {
    "corpus-n7": CorpusN7,
    "poly-large": PolyLarge,
    "closed-forms": ClosedForms,
    "check-all-n6": CheckAllN6,
}


def build(name: str, scale: str, seed: int, plant: bool = False):
    """Set up one workload; each workload draws from its own seeded stream."""
    return WORKLOADS[name](PARAMS[scale][name], random.Random(f"{name}:{seed}"), plant)
