"""Corpus sweeps machine-checking the structural results.

Exhaustive sweeps visit every labeled graph up to a small order; randomized
sweeps draw seeded graphs at larger orders.  Each graph is checked on its
own and its records come back in graph order, so reports are deterministic
for a fixed seed regardless of worker count.
"""
from __future__ import annotations

import random
from functools import cache, cached_property, partial
from itertools import permutations
from math import comb
from time import perf_counter
from typing import Sequence

from .analysis import (_batch_structure, _exceeds_path, _extremal, _hall_ok, _min_sets_force, _structure,
                       same_poly_threshold_family)
from .closed_forms import (
    _threshold_batch_bits,
    count_consecutive_selections,
    poly_complete,
    poly_cycle,
    poly_multipartite,
    poly_path,
    poly_threshold,
    poly_wheel,
)
from .forcing import _lane_forcers, _lane_reversals, _sweep
from .forts import (_batch_cover_sizes, _batch_fort_definition, _fort_count_bound, _fort_definition_bits, _reversed,
                    _up_closure)
from .graphs import (
    LABELED_ENUM_MAX,
    Graph,
    _edge_mask_adj,
    _has_hamiltonian_path,
    complete,
    complete_multipartite,
    cycle,
    cycle_plus_chord,
    disjoint_union,
    edge_pair_order,
    empty,
    from_edge_list,
    is_isomorphic,
    join,
    path,
    wheel,
)
from .parallel import parallel_map, run_scope
from .polynomial import (_batch_bits, _batch_edges, _batch_tally, _block_counts, _blocks, _chunk_constants,
                         _closure_tally, _component_product, _gather, _gather_runs, _induced_adj, _is_unimodal,
                         _joined, _list_tally, _threshold_tally, _zero_forcing_number, zf_polynomial)

EXHAUSTIVE_MAX_N = LABELED_ENUM_MAX

# Every per-graph check, in record order: the sweep suite that runs it ("all"
# runs every check, so a check mapped to "all" runs nowhere else), and what it
# reads beyond n, its edge mask and coefficients: "structure" (a _structure row),
# "forts" (the definition's, closed upward) and "facts" (_coefficient_facts),
# or none when its record is one of the facts.  The views below derive from it.
CHECKS = {
    "extremal": ("extremal", "structure"),                  # the four characterized coefficients match enumeration
    # coefficients vanish exactly below the first nonzero one.  Where none is nonzero, every check set
    # that finds the facts files this record, in any suite, and the checks that read z skip the graph
    "zero-range": ("extremal", ""),
    "all-min-sets": ("extremal", "facts"),                  # every minimum-size set forces iff complete or empty
    "hall": ("hall", ""),                                   # coefficient monotonicity below n/2
    "multiplicativity": ("multiplicativity", "structure"),  # polynomial is the product over connected components
    # the fort duality: a set forces by the zf bits iff it lies in no proper closed set by the definition.
    # fort-count-bound and ip read the definition's forts too, so each files this record, in any suite
    "fort-transversal": ("forts", "forts"),
    "fort-count-bound": ("forts", "forts facts"),           # fort count at most 2^n minus the zero forcing set count
    "ip": ("ip", "forts facts"),                            # minimum fort cover size equals the zero forcing number
    "ham-bound": ("forts", "structure facts"),              # Hamiltonian-path graphs obey the path bound
    # path, complete and cycle-class polynomials characterize their graphs
    "recognizability": ("recognizability", "structure facts"),
    "unimodality": ("conjectures", ""),                     # conjecture: coefficients rise then fall
    "path-bound": ("conjectures", ""),                      # conjecture: coefficients at most the path's
    "reversal": ("all", "facts"),                           # reversing the chains of a minimum set forces again
}

CHECK_KEYS = tuple(CHECKS)
FORT_CHECKS, STRUCTURE_CHECKS = (frozenset(check for check, (_, reads) in CHECKS.items() if what in reads)
                                 for what in ("forts", "structure"))
# a sweep batch runs these once per distinct coefficient vector (_coefficient_facts)
COEFFICIENT_CHECKS = frozenset(check for check, (_, reads) in CHECKS.items() if not reads)
# run alone, these skip finding the facts
FACT_FREE_CHECKS = frozenset(check for check, (_, reads) in CHECKS.items() if reads and "facts" not in reads)
SWEEP_SUITE_CHECKS = {
    suite: frozenset(check for check in CHECK_KEYS if CHECKS[check][0] == suite)
    for suite in dict.fromkeys(suite for suite, _ in CHECKS.values()) if suite != "all"
}

# Conjecture counterexamples are warnings; every other record is a failure.
CONJECTURE_CHECKS = SWEEP_SUITE_CHECKS["conjectures"]

SUITES = tuple(sorted(SWEEP_SUITE_CHECKS)) + ("closed-forms", "all")

IP_RANDOM_COUNT = 100
CONJECTURE_RANDOM_COUNT = 500
RANDOM_N_RANGE = (8, 14)


# ---------------------------------------------------------------------------
# Per-graph kernel.  Works on raw adjacency lists through the library's
# (adj, n) kernels, so one flag table per graph serves every check.


class _GraphContext:
    """Per-order constants shared across a scan."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = edge_pair_order(n)
        self.full_edges = (1 << len(self.pairs)) - 1
        self.path_coeffs = poly_path(n).coeffs  # tuples, like _coefficient_facts's key
        self.complete_coeffs = poly_complete(n).coeffs
        # The cycle class list is verified only at the enumerable orders.
        self.cycle_coeffs = poly_cycle(n).coeffs if 3 <= n <= EXHAUSTIVE_MAX_N else None
        self.cycle_class = expected_cycle_class(n) if self.cycle_coeffs else []

    @cached_property
    def cycle_orbit(self) -> frozenset[int]:
        """The edge masks of every labeling of a graph of cycle_class, built
        on first use (960 at n = 6, 5,400 at n = 7): the batch path's test of
        the cycle class, which _check_one makes with is_isomorphic."""
        bit = [[0] * self.n for _ in range(self.n)]
        for i, (u, v) in enumerate(self.pairs):
            bit[u][v] = bit[v][u] = 1 << i
        return frozenset(sum(bit[p[u]][p[v]] for u, v in g.edges())
                         for g in self.cycle_class for p in permutations(range(self.n)))


@cache
def _context(n: int) -> _GraphContext:
    return _GraphContext(n)


def _check_one(checks: frozenset, n: int, emask: int) -> list[tuple[str, str]] | tuple[()]:
    """Run the requested checks on one labeled graph, through the per-graph
    kernels that are _check_batch's oracles; returns (check, detail) pairs,
    or the shared empty tuple when every check passes."""
    adj = _edge_mask_adj(_context(n).pairs, n, emask)
    structure = _structure(adj, n) if checks & STRUCTURE_CHECKS else None
    zf, coeffs = _closure_tally(adj, n)
    zf = _joined(zf, n)
    count = diff = size = None
    if checks & FORT_CHECKS:
        definition = _fort_definition_bits(adj, n)
        up = _up_closure(definition, n, 0)
        count, diff = definition.bit_count(), _reversed(up, n) ^ zf ^ (1 << (1 << n)) - 1
        size = _batch_cover_sizes(up, n, 0)[0] if "ip" in checks else None
    return _check_table(checks, n, emask, zf, count, coeffs, structure, diff, size,
                        partial(_unreversed, adj, zf), partial(_in_cycle_class, adj),
                        lambda emask, active: tuple(_component_product(adj, n, _component_tally)), _coefficient_facts,
                        adj)


def _component_tally(adj: list[int], comp: int) -> list[int]:
    return _closure_tally(_induced_adj(adj, comp), comp.bit_count())[1]


def _in_cycle_class(adj: list[int], emask: int) -> bool:
    """Whether the graph of adj, edge mask emask, is isomorphic to a graph of
    the cycle class list: _check_one's oracle of the batch path's orbit."""
    g = Graph(len(adj), tuple(adj))
    return any(is_isomorphic(g, h) for h in _context(g.n).cycle_class)


def _unreversed(adj: list[int], zf: int, minimum: int) -> int:
    """The lowest set of minimum (a bit per mask) whose chain terminals, the
    vertices outside its forcers (_sweep), do not force by zf, as a bit, or 0."""
    while minimum:
        low = minimum & -minimum
        minimum ^= low
        if not zf >> (_sweep(adj, low.bit_length() - 1)[0] ^ (1 << len(adj)) - 1) & 1:
            return low
    return 0


def _check_batch(checks: frozenset, n: int, b: int, base: int) -> list[tuple[int, list[tuple[str, str]]]]:
    """Run the requested checks on the 2^b graphs of one batch, edge masks
    base on; returns (edge mask, (check, detail) pairs) of each graph that
    fails.  The flag tables, structures, forts, cover sizes and reversals
    are built for the batch, the tables and reversals from one build of its
    lanes, and stay joined: the forts by definition are built over the
    reversed lanes, so that one reversal of their upward closure lines its
    blocks up with the zf bits for the fort duality's XOR, and the tables
    are split into per-graph blocks only where that or the reversal finds a
    failing lane.
    The cycle class is read off the orbit of its list, each distinct
    coefficient vector's facts are found once per process, and so is the
    component product of each distinct non-isolated part (_batch_product)."""
    ctx = _context(n)
    edges = _batch_edges(ctx.pairs, n, base, b)
    zf, counts = _batch_tally(ctx.pairs, n, base, b, edges)
    unread = [None] * len(counts)  # per graph, what no requested check reads
    zfs = structures = fort_counts = diffs = sizes = unreversed = unread
    if checks & STRUCTURE_CHECKS:
        structures = _batch_structure(ctx.pairs, n, base, b)
    if checks & FORT_CHECKS:
        # the definition and its upward closure hold graph g in block 2^b - 1 - g, so each per-graph
        # list is read backwards; the reversal of the closure holds it in block g
        definition = _batch_fort_definition(*_batch_edges(ctx.pairs, n, base, b, reverse=True))
        up = _up_closure(definition, n, b)
        diff = _reversed(up, n + b) ^ zf ^ edges[0]
        if diff:
            zfs, diffs = _blocks(zf, n, b), _blocks(diff, n, b)
        if "fort-count-bound" in checks:
            fort_counts = _block_counts(definition, n, b)[::-1]
        if "ip" in checks:
            sizes = _batch_cover_sizes(up, n, b)[::-1]
    cyclic = ctx.cycle_orbit.__contains__ if "recognizability" in checks else None
    if "reversal" in checks:
        # the zero forcing lanes that fail
        failing = zf & (edges[0] ^ _lane_reversals(zf, edges[0], _lane_forcers(*edges)))
        if failing:
            zfs = _blocks(zf, n, b)
            unreversed = [block.__and__ for block in _blocks(failing, n, b)]
    failed = []
    product = partial(_batch_product, n)
    rows = zip(zfs, fort_counts, counts, structures, diffs, sizes, unreversed)
    for g, (zf, count, coeffs, structure, diff, size, unrev) in enumerate(rows):
        emask = base + g
        bad = _check_table(checks, n, emask, zf, count, coeffs, structure, diff, size, unrev, cyclic,
                           product, _facts)
        if bad:
            failed.append((emask, bad))
    return failed


# The batch path's component products.  Each component's coefficients come
# from the table of its order, indexed by its edge mask, and the product of
# a graph is found once per process for each non-isolated part: 871 parts
# at n <= 6, 28,264 at n = 7.  exhaustive_sweep clears the tables and the
# products; the gather runs read no table.

@cache
def _order_counts(k: int) -> list[tuple[int, ...]]:
    """The coefficients of every labeled graph of order k, indexed by edge
    mask, read off _batch_tally batches (1,024 graphs in one batch at k = 5,
    32,768 in 32 at k = 6), each distinct vector held once."""
    pairs, b = edge_pair_order(k), _batch_bits(k)
    shared: dict = {}
    return [shared.setdefault(coeffs, coeffs) for base in range(0, 1 << len(pairs), 1 << b)
            for coeffs in _batch_tally(pairs, k, base, b)[1]]


@cache
def _pair_runs(n: int, vertices: int) -> tuple[tuple[int, int], ...]:
    """The _gather runs that take an edge mask over edge_pair_order(n) to the
    edge mask of the graph it induces on vertices, relabeled in vertex order,
    over edge_pair_order(|vertices|): an order-preserving relabeling keeps
    the lexicographic order of the pairs inside vertices."""
    inside = [vertices >> u & vertices >> v & 1 for u, v in edge_pair_order(n)]
    return _gather_runs(sum(bit << i for i, bit in enumerate(inside)))


def _batch_product(n: int, emask: int, active: int) -> tuple[int, ...]:
    """The component product of the graph of edge mask emask on n vertices,
    whose non-isolated vertices are active."""
    r = active.bit_count()
    if r == n:  # no isolated vertex: the graph is its own part, met once in a sweep
        return _table_product(n, n, emask)
    return _part_product(n, r, _gather(emask, _pair_runs(n, active)))


def _table_product(n: int, r: int, m: int) -> tuple[int, ...]:
    """The product of the order tables' coefficients of the components of
    every graph on n vertices whose non-isolated part has r vertices and,
    relabeled in vertex order, edge mask m, read off the one that keeps the
    part on vertices 0 to r - 1.  Order-preserving relabelings compose, so
    these graphs' components have the same relabeled edge masks, and the
    product is theirs even under a wrong table."""
    adj = _edge_mask_adj(edge_pair_order(r), r, m) + [0] * (n - r)
    # a vertex at or past r is inside no pair of edge_pair_order(r): K1's table at mask 0
    product = _component_product(adj, n, lambda _, c: _order_counts(c.bit_count())[_gather(m, _pair_runs(r, c))])
    return tuple(product)  # immutable, as _part_product hands it to every caller


_part_product = cache(_table_product)


def _coefficient_facts(checks: frozenset, n: int, coeffs: tuple) -> tuple:
    """What the checks read of one coefficient vector alone: z (None where
    no coefficient is nonzero, which files zero-range's record whatever the
    checks), the records of the COEFFICIENT_CHECKS among checks, whether a coefficient exceeds
    the path's, whether every minimum set forces, the count of zero forcing
    sets, and equality with the path's, the complete graph's and the cycle's
    coefficients."""
    ctx = _context(n)
    z = _zero_forcing_number(coeffs) if any(coeffs) else None
    exceeds = _exceeds_path(coeffs, ctx.path_coeffs)
    shown = list(coeffs)
    bad = []
    if z is None:
        bad.append(("zero-range", "no nonzero coefficient"))
    elif "zero-range" in checks and 0 in coeffs[z:n + 1]:
        bad.append(("zero-range", f"zero coefficient above the first nonzero index {z}"))
    if "hall" in checks and not _hall_ok(coeffs, n):
        bad.append(("hall", f"coefficients {shown} decrease somewhere below n/2"))
    if "unimodality" in checks and not _is_unimodal(coeffs):
        bad.append(("unimodality", f"coefficients {shown} are not unimodal"))
    if "path-bound" in checks and exceeds:
        bad.append(("path-bound", f"coefficients {shown} exceed the path's"))
    return (z, tuple(bad), exceeds, z is not None and _min_sets_force(coeffs, n, z), sum(coeffs),
            coeffs == ctx.path_coeffs, coeffs == ctx.complete_coeffs, coeffs == ctx.cycle_coeffs)


@cache
def _facts(checks: frozenset, n: int, coeffs: tuple) -> tuple:
    """_coefficient_facts, found once per distinct argument for the life of
    the process (exhaustive_sweep clears it): the batch path's memo, of a
    few hundred entries per order and check set (n = 7 has 327 distinct
    coefficient vectors)."""
    return _coefficient_facts(checks, n, coeffs)


def _check_table(checks: frozenset, n: int, emask: int, zf: int | None, count: int | None,
                 coeffs: Sequence[int], structure: tuple | None, diff: int | None, size: int | None, unreversed,
                 cyclic, product, facts, adj: list[int] | None = None) -> list[tuple[str, str]] | tuple[()]:
    """The checks of one labeled graph, given its zero forcing bits (read
    only where diff or unreversed is given), the count of its forts by
    definition (read only by fort-count-bound), its coefficients, its
    structure (None unless a check of STRUCTURE_CHECKS runs), diff, the
    masks that the zero forcing bits and the sets lying in a proper closed
    set by definition both hold or both miss (falsy where none; read only
    by FORT_CHECKS), size, the definition's cover size when ip runs,
    unreversed(minimum), the lowest at least of the minimum
    sets (a bit per mask) whose chain terminals do not force, or None when
    every zero forcing set's do, cyclic(emask), whether the graph is in the
    cycle class list up to isomorphism, product(emask, the structure's mask
    of non-isolated vertices), the product of the coefficients of its
    components as a tuple, facts, _coefficient_facts or a memo of it (not called when
    every check is in FACT_FREE_CHECKS; z is None where no coefficient is
    nonzero), and adj, the caller's adjacency or None, in which case only
    ham-bound, which reads the adjacency, builds it, from emask.  Records
    come in CHECK_KEYS order."""
    ctx = _context(n)
    z, coefficient_bad, exceeds, every_min_forces, zfs_count, is_pathc, is_completec, is_cyclec = (
        (None, ()) + (None,) * 6 if checks <= FACT_FREE_CHECKS else facts(checks, n, tuple(coeffs)))
    bad = list(coefficient_bad)

    if "extremal" in checks:
        top, second, third, single = _extremal(n, structure)
        if coeffs[n] != top:
            bad.append(("extremal", f"top coefficient {coeffs[n]} != {top}"))
        if coeffs[n - 1] != second:
            bad.append(("extremal", f"size n-1: {coeffs[n - 1]} != {second}"))
        if n >= 2 and coeffs[n - 2] != third:
            bad.append(("extremal", f"size n-2: {coeffs[n - 2]} != {third}"))
        if coeffs[1] != single:
            bad.append(("extremal", f"size 1: {coeffs[1]} != {single}"))

    if "all-min-sets" in checks and z is not None:
        extreme = emask == 0 or emask == ctx.full_edges
        if every_min_forces != extreme:
            bad.append(("all-min-sets", f"all-minimum-sets {every_min_forces} vs complete/empty {extreme}"))

    if "multiplicativity" in checks and not structure[3]:
        # the components' product against the whole graph's own table
        if product(emask, structure[0]) != tuple(coeffs):
            bad.append(("multiplicativity", "component product differs from direct enumeration"))

    if checks & FORT_CHECKS and diff:
        # The fort duality: a set forces iff it meets every fort, that is
        # iff it lies in no proper closed set, the complement of a fort.
        # The zero forcing bits come from the close-up alone and the closed
        # sets from the definition alone, so each side checks the other.
        f = (diff & -diff).bit_length() - 1
        if zf >> f & 1:
            bad.append(("fort-transversal", f"zero forcing set {f:#x} lies in a proper closed set"))
        else:
            bad.append(("fort-transversal", f"set {f:#x} lies in no proper closed set but does not force"))

    if "fort-count-bound" in checks:
        if not _fort_count_bound(count, n, zfs_count)[1]:
            bad.append(("fort-count-bound", f"{count} forts > 2^n - {zfs_count}"))

    if "ip" in checks and z is not None:
        if size > z:
            bad.append(("ip", f"no fort cover of size {z}, the zero forcing number"))
        elif size < z:
            bad.append(("ip", f"a fort cover smaller than the zero forcing number {z}"))

    if checks & {"ham-bound", "recognizability"}:
        wrong_path_equality = is_pathc != structure[2]

    # Both conclusions first: the antecedent (a Hamiltonian path) is the
    # costly part and matters only when one of them fails.
    if "ham-bound" in checks and (exceeds or wrong_path_equality) and _has_hamiltonian_path(
            adj or _edge_mask_adj(ctx.pairs, n, emask), n):
        if exceeds:
            bad.append(("ham-bound", "Hamiltonian-path graph exceeds the path bound"))
        if wrong_path_equality:
            bad.append(("ham-bound", "path-bound equality profile does not single out the path"))

    if "recognizability" in checks:
        if wrong_path_equality:
            bad.append(("recognizability", "path polynomial does not characterize paths"))
        if is_completec != (emask == ctx.full_edges):
            bad.append(("recognizability", "complete polynomial does not characterize complete graphs"))
        if is_cyclec and not cyclic(emask):
            bad.append(("recognizability", "cycle polynomial outside the listed cycle class"))

    if "reversal" in checks and unreversed and z is not None:
        failing = unreversed(zf & _chunk_constants(n)[2][z])  # of the minimum zero forcing sets
        if failing:
            mask = (failing & -failing).bit_length() - 1
            bad.append(("reversal", f"reversed chains of {mask:#x} do not force"))

    return sorted(bad, key=lambda record: CHECK_KEYS.index(record[0])) if bad else ()


def _check_spec(checks: frozenset, spec: tuple[int, int]) -> list[tuple[str, str]] | tuple[()]:
    return _check_one(checks, *spec)


def _check_names(checks) -> frozenset:
    checks = frozenset(checks)
    unknown = checks.difference(CHECK_KEYS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return checks


def _record(check: str, n: int, graph, detail: str) -> dict:
    return {"check": check, "n": n, "graph": graph, "detail": detail}


def exhaustive_sweep(checks, max_n: int, jobs: int = 1) -> tuple[int, list[dict]]:
    """Run checks on every labeled graph with 1 <= n <= max_n.

    Returns (graphs checked, failure records ordered by (n, graph)).
    """
    checks = _check_names(checks)
    if not 1 <= max_n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive sweep needs 1 <= max_n <= {EXHAUSTIVE_MAX_N}, got {max_n}")
    for memo in (_order_counts, _part_product, _facts):
        memo.cache_clear()
    if "recognizability" in checks:
        for n in range(3, max_n + 1):
            _context(n).cycle_orbit  # built here, before a pool forks, so no worker builds its own
    total_graphs = 0
    records: list[dict] = []
    with run_scope():  # one pool for every order, forked after the memos were emptied
        for n in range(1, max_n + 1):
            b = _batch_bits(n)
            bases = range(0, 1 << comb(n, 2), 1 << b)
            for failed in parallel_map(partial(_check_batch, checks, n, b), bases, jobs):
                for emask, bad in failed:
                    for check, detail in bad:
                        records.append(_record(check, n, emask, detail))
            total_graphs += 1 << comb(n, 2)
    return total_graphs, records


def random_graph_specs(count: int, n_lo: int, n_hi: int, seed: int) -> list[tuple[int, int]]:
    """Seeded (n, edge mask) specs with edge probability drawn per graph."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(0.15, 0.85)
        emask = 0
        for b in range(n * (n - 1) // 2):
            if rng.random() < p:
                emask |= 1 << b
        out.append((n, emask))
    return out


def random_sweep(checks, specs: list[tuple[int, int]], jobs: int = 1) -> tuple[int, list[dict]]:
    """Run checks on an explicit list of (n, edge mask) graphs."""
    checks = _check_names(checks)
    for spec in specs:
        n, emask = spec
        if n < 1 or emask >> comb(n, 2):  # a negative mask shifts to -1
            raise ValueError(f"graph spec {spec!r} needs n >= 1 and an edge mask in [0, 2^C(n,2))")
    records: list[dict] = []
    for (n, emask), bad in zip(specs, parallel_map(partial(_check_spec, checks), specs, jobs)):
        for check, detail in bad:
            records.append(_record(check, n, emask, detail))
    return len(specs), records


# ---------------------------------------------------------------------------
# Closed-form oracle suite


def _count_consecutive_direct(n: int, m: int) -> dict[int, int]:
    """Direct tally, by subset size, of n-cycle subsets with an m-run.

    Independent of the alternating-sum formula: every subset of the cycle is
    a lane of one 2^n-bit int, the AND of m cyclically consecutive planes
    marks the subsets that hold the run from one start, and the OR over the
    n starts is tallied by size.
    """
    if m > n:
        return {k: 0 for k in range(n + 1)}
    ones, planes, levels = _chunk_constants(n)
    hit = 0
    for start in range(n):
        run = ones
        for s in range(start, start + m):
            run &= planes[s % n]
        hit |= run
    return {k: (hit & level).bit_count() for k, level in enumerate(levels)}


def _partitions_min2(max_total: int) -> list[list[int]]:
    """Non-increasing part lists, parts >= 2, at least two parts, sum <= max_total."""
    results: list[list[int]] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if len(acc) >= 2:
            results.append(list(acc))
        for part in range(min(cap, remaining), 1, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(max_total, max_total, [])
    return results


def _threshold_string(length: int, bits: int) -> str:
    """The canonical connected string of one length whose free positions
    1..length-2 hold the bits of bits, lowest first: position 0 copies
    position 1 and the last position is '1'."""
    tail = format(bits, f"0{length - 2}b")[::-1] + "1" if length > 2 else "1"
    return tail[0] + tail


def canonical_connected_strings(length: int) -> list[str]:
    """All binary strings of one length whose first two symbols agree and whose
    last symbol is '1' (one generating string per connected threshold graph),
    in the order of their free bits."""
    if length < 2:
        raise ValueError("need length >= 2")
    return [_threshold_string(length, bits) for bits in range(1 << (length - 2))]


def _check_threshold_batch(spec: tuple[int, int, int]) -> list[tuple[str, list[tuple[str, str]]]]:
    """Check the 2^b threshold strings of one length whose free bits are
    base + g, g < 2^b, spec (length, b, base): the closed-form polynomial
    and the direct zero-forcing-set characterization, both against
    enumeration.  Their flag tables come joined from one _threshold_tally,
    and their characterization tables from one _threshold_batch_bits,
    built from the strings' characters; the two are compared in one XOR,
    split into per-string blocks only where that finds a difference, and
    each string's coefficients with poly_threshold.
    Returns (string, (check, detail) pairs) of each string that fails."""
    length, b, base = spec
    strings = [_threshold_string(length, bits) for bits in range(base, base + (1 << b))]
    zf, counts = _threshold_tally(length, base, b)
    diff = zf ^ _threshold_batch_bits(strings, b)
    diffs = _blocks(diff, length, b) if diff else [0] * len(strings)
    failed = []
    for s, coeffs, d in zip(strings, counts, diffs):
        bad = []
        if coeffs != poly_threshold(s).coeffs:
            bad.append(("threshold-poly", "closed form differs from enumeration"))
        if d:
            bad.append(("threshold-zfs-check", f"characterization wrong on mask {(d & -d).bit_length() - 1:#x}"))
        if bad:
            failed.append((s, bad))
    return failed


def _chorded_cycles(n: int) -> list[tuple[int, int, list[int]]]:
    """(i, j, adjacency) of cycle_plus_chord(n, i, j) for each chord {i, j},
    i < j, in order: the ring's adjacency with the two chord bits set, with
    no Graph built."""
    ring = [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]
    chords = []
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            adj = ring.copy()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            chords.append((i, j, adj))
    return chords


def _family_instances(max_n: int) -> list[tuple[str, int, str, Sequence[int], tuple[int, ...]]]:
    """(check, n, graph, adjacency, closed-form coefficients) of each graph
    of the closed-forms suite's families, in record order: the paths,
    cycles, complete graphs and wheels up to order max_n and the complete
    multipartite graphs of every _partitions_min2(max_n), each against its
    own closed form, then the single-chord cycles up to order
    min(10, max_n), each against the cycle's."""
    instances = []
    for label, first, build, form in (
        ("path", 1, path, poly_path),
        ("cycle", 3, cycle, poly_cycle),
        ("complete", 1, complete, poly_complete),
        ("wheel", 5, wheel, poly_wheel),
    ):
        instances += [(f"family-{label}", n, f"{label}:{n}", build(n).adj, form(n).coeffs)
                      for n in range(first, max_n + 1)]
    instances += [("family-multipartite", sum(parts), f"multipartite:{parts}", complete_multipartite(parts).adj,
                   poly_multipartite(parts).coeffs) for parts in _partitions_min2(max_n)]
    for n in range(4, min(10, max_n) + 1):
        target = poly_cycle(n).coeffs
        instances += [("chord-invariance", n, f"cycle-chord:{n}:{i}:{j}", adj, target)
                      for i, j, adj in _chorded_cycles(n)]
    return instances


def _listed_coeffs(graphs: Sequence[tuple[int, Sequence[int]]]) -> list[tuple[int, ...]]:
    """The coefficients of each (n, adjacency) of graphs, in order: the
    graphs of each order n go through _list_tally in batches of up to
    2^_batch_bits(n), no wider than the list needs, and through
    zf_polynomial at the orders where _batch_bits(n) is 0."""
    by_order: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(graphs):
        by_order.setdefault(n, []).append(i)
    coeffs = [()] * len(graphs)
    for n, listed in by_order.items():
        adjs = [graphs[i][1] for i in listed]
        if _batch_bits(n):
            b = min(_batch_bits(n), (len(adjs) - 1).bit_length())
            counts = [c for start in range(0, len(adjs), 1 << b)
                      for c in _list_tally(adjs[start:start + (1 << b)], n, b)[1]]
        else:
            counts = [zf_polynomial(Graph(n, tuple(adj))).coeffs for adj in adjs]
        for i, c in zip(listed, counts):
            coeffs[i] = c
    return coeffs


def run_closed_forms_suite(max_n: int = 12, jobs: int = 1) -> tuple[int, list[dict]]:
    """Closed forms against brute-force enumeration for every admissible size.

    The family graphs of each order are tallied in lane batches
    (``_listed_coeffs``) and each graph's counts compared with its closed
    form.  The threshold strings are checked against the flag table twice:
    the block-index expansion against its coefficients, and the
    characterization table, built from the strings' characters, against its
    zero forcing bits.  The strings of each length go in batches of 2^b
    consecutive ones, b = min(length - 2, _batch_bits(length)), whose flag
    tables one lane kernel builds joined (``_check_threshold_batch``), so
    that the zero forcing bits of a batch are compared in one XOR; the
    batches are mapped over jobs processes.  The consecutive-run formula is
    checked against ``_count_consecutive_direct`` on the cycle's own planes.

    Returns (instances checked, failure records).
    """
    records: list[dict] = []

    def fail(check: str, n, graph, detail: str) -> None:
        records.append(_record(check, n, graph, detail))

    instances = _family_instances(max_n)
    checked = len(instances)
    wrong = [(check, n, graph) for (check, n, graph, _, want), got
             in zip(instances, _listed_coeffs([(n, adj) for _, n, _, adj, _ in instances])) if got != want]
    for check, n, graph in wrong:
        if check != "chord-invariance":
            fail(check, n, graph, "closed form differs from enumeration")

    # consecutive-run selections against direct counting, n <= 14
    for m in (3, 4):
        for n in range(3, 15):
            direct = _count_consecutive_direct(n, m)
            for k in range(n + 1):
                checked += 1
                got = count_consecutive_selections(n, k, m)
                if got != direct[k]:
                    fail("consecutive-selections", n, f"(n={n},k={k},m={m})",
                         f"formula {got} != direct {direct[k]}")

    # single-chord cycles share the cycle polynomial
    for check, n, graph in wrong:
        if check == "chord-invariance":
            fail(check, n, graph, "chorded cycle polynomial differs from the cycle's")

    # permutation-invariant threshold families
    for k in (3, 4):
        family = same_poly_threshold_family(k)
        checked += len(family)
        if any(p != family[0][1] for _, p in family):
            fail("threshold-permutation", len(family[0][0]), f"k={k}",
                 "permuted block sizes changed the polynomial")

    # every canonical connected string, closed form + characterization
    specs = []
    for length in range(2, max_n + 1):
        b = min(length - 2, _batch_bits(length))
        specs.extend((length, b, base) for base in range(0, 1 << (length - 2), 1 << b))
        checked += 1 << (length - 2)
    for failed in parallel_map(_check_threshold_batch, specs, jobs):
        for s, bad in failed:
            for check, detail in bad:
                fail(check, len(s), f"threshold:{s}", detail)

    return checked, records


# ---------------------------------------------------------------------------
# Recognizability class lists


def expected_cycle_class(n: int) -> list[Graph]:
    """The graphs whose polynomial should equal the n-cycle's: the cycle, every
    single-chord class, and the two exceptional graphs at n = 4 and n = 6."""
    reps = [cycle(n)]
    for d in range(2, n // 2 + 1):
        reps.append(cycle_plus_chord(n, 0, d))
    if n == 4:
        reps.append(from_edge_list(4, [(0, 1), (2, 3)]))  # two disjoint edges
    if n == 6:
        reps.append(join(disjoint_union(path(4), empty(1)), complete(1)))
    return reps


def verify_cycle_class(n: int) -> list[dict]:
    """Check that every listed graph has the n-cycle's polynomial.

    The converse, that no unlisted graph has it, is the sweep's
    ``recognizability`` check, which tests every labeled graph of order n.
    """
    target = poly_cycle(n).coeffs
    listed = expected_cycle_class(n)
    return [_record("cycle-class", n, f"n={n}", f"listed graph with edges {g.edges()} lacks the cycle polynomial")
            for g, coeffs in zip(listed, _listed_coeffs([(n, g.adj) for g in listed])) if coeffs != target]


# ---------------------------------------------------------------------------
# Suite runner


def run_suite(
    suite: str,
    max_n: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Run one named check suite and return a report dict.

    ``max_n`` defaults to 12 for the closed forms and to EXHAUSTIVE_MAX_N for
    the exhaustive sweep, which also clamps larger values; the report's
    ``max_n`` is the order actually used (the sweep's, for sweep suites).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    forms_max = 12 if max_n is None else max_n
    t0 = perf_counter()
    passes: list[tuple[int, list[dict]]] = []  # (items checked, records), in run order

    with run_scope():  # one pool for every pass that pools
        if suite == "closed-forms":
            max_n = forms_max
            passes.append(run_closed_forms_suite(max_n=max_n, jobs=jobs))
        else:
            max_n = EXHAUSTIVE_MAX_N if max_n is None else min(max_n, EXHAUSTIVE_MAX_N)
            checks = SWEEP_SUITE_CHECKS.get(suite, frozenset(CHECK_KEYS))
            passes.append(exhaustive_sweep(checks, max_n, jobs=jobs))
            if "ip" in checks:
                specs = random_graph_specs(IP_RANDOM_COUNT, *RANDOM_N_RANGE, seed)
                passes.append(random_sweep({"ip"}, specs, jobs=jobs))
            if checks & CONJECTURE_CHECKS:
                specs = random_graph_specs(CONJECTURE_RANDOM_COUNT, *RANDOM_N_RANGE, seed + 1)
                passes.append(random_sweep(checks & CONJECTURE_CHECKS, specs, jobs=jobs))
            if "recognizability" in checks:
                passes.extend((1, verify_cycle_class(n)) for n in range(3, max_n + 1))
            if suite == "all":
                passes.append(run_closed_forms_suite(max_n=min(forms_max, 12), jobs=jobs))

    records = [rec for _, recs in passes for rec in recs]
    failures = [rec for rec in records if rec["check"] not in CONJECTURE_CHECKS]
    warnings = [rec for rec in records if rec["check"] in CONJECTURE_CHECKS]
    return {
        "suite": suite,
        "max_n": max_n,
        "seed": seed,
        "jobs": jobs,
        "graphs_checked": sum(count for count, _ in passes),
        "failures": failures,
        "warnings": warnings,
        "passed": not failures,
        "elapsed_s": round(perf_counter() - t0, 3),
    }
