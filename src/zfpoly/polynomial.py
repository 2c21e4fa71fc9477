"""Zero forcing polynomials with exact big-integer coefficients.

The polynomial of a graph on n vertices is stored as n+1 coefficients;
coefficient i counts the zero forcing sets of size i.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from operator import or_
from typing import Sequence

from .forcing import _sweep
from .graphs import Graph, SizeCapError, _connected_components, mask_of, vertices_of

# Full-subset enumeration is exponential: the 2^24 subsets of wheel:24 take
# 15-19 ms through the flag table for the coefficients alone, and 22-36 ms
# with its zf bits joined into one 2 MiB table, at 18 and 22 MB peak RSS for
# the whole process, 16.6 MB after import (2-core Xeon, Python 3.11.7).
DEFAULT_ENUMERATION_CAP = 24
CAP_ENV_VAR = "ZFPOLY_MAX_N"

# The one lane-table layout: a 2^n-bit table, one subset per bit, is held as
# chunks of 2^k bits, one int each, so that each operation acts on a whole
# chunk.  The low k = _lane_width(n) vertices index the bits of a chunk and
# the high n - k its number h, chunk 0 lowest.  Only _closure_tally, the one
# kernel that runs up to the enumeration cap, chunks, to bound its memory
# there.  Every other table is one 2^n-bit int over _chunk_planes(n), or one
# 2^(n+b)-bit int for 2^b graphs, whose edge lanes one of three builders lays
# out for _lane_tally: _batch_edges for consecutive edge masks (the sweep),
# _threshold_edges for consecutive threshold strings, and _list_edges for a
# list of adjacency lists (the closed-forms families and the cycle class).
_CHUNK_BITS = 12


def enumeration_cap() -> int:
    """Current subset-enumeration cap (ZFPOLY_MAX_N overrides the default)."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{CAP_ENV_VAR} must be nonnegative, got {cap}")
    return cap


@dataclass(frozen=True)
class ZfPolynomial:
    """Coefficient vector of a zero forcing polynomial, indexed by set size."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("polynomial order must be nonnegative")
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need exactly n+1 coefficients")
        if min(self.coeffs) < 0:  # the n + 1 >= 1 coefficients checked above
            raise ValueError("coefficients must be nonnegative")

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def zero_forcing_number(self) -> int:
        """Index of the first nonzero coefficient."""
        return _zero_forcing_number(self.coeffs)

    def is_unimodal(self) -> bool:
        """True iff the nonzero coefficient segment weakly rises then weakly falls."""
        return _is_unimodal(self.coeffs)

    def pretty(self) -> str:
        """Human form such as '8x^3 + 5x^4 + x^5' (ascending powers)."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            coef = "" if c == 1 and i > 0 else str(c)
            if i == 0:
                power = ""
            elif i == 1:
                power = "x"
            else:
                power = f"x^{i}"
            terms.append(coef + power)
        return " + ".join(terms) if terms else "0"

    def to_json_dict(self) -> dict:
        # decimal strings so big integers survive any JSON reader
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ZfPolynomial":
        return cls(int(payload["n"]), tuple(int(c) for c in payload["coeffs"]))

    @classmethod
    def from_json(cls, text: str) -> "ZfPolynomial":
        return cls.from_json_dict(json.loads(text))

    def __mul__(self, other: "ZfPolynomial") -> "ZfPolynomial":
        return multiply(self, other)


# The polynomial's readings on a bare coefficient sequence, for kernels that
# build no ZfPolynomial.

def _zero_forcing_number(coeffs: Sequence[int]) -> int:
    for i, c in enumerate(coeffs):
        if c:
            return i
    raise ValueError("all coefficients are zero")


def _is_unimodal(coeffs: Sequence[int]) -> bool:
    # no rise after a fall; the coefficients are nonnegative, so zeros
    # outside the nonzero segment add only rises before it and falls after
    steps = [b > a for a, b in zip(coeffs, coeffs[1:]) if a != b]
    return steps == sorted(steps, reverse=True)


def _convolve(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def multiply(p: ZfPolynomial, q: ZfPolynomial) -> ZfPolynomial:
    """Coefficient convolution; the result has order p.n + q.n."""
    return ZfPolynomial(p.n + q.n, tuple(_convolve(p.coeffs, q.coeffs)))


def _chunk_planes(k: int) -> tuple[int, tuple[int, ...]]:
    """(all ones, planes) of a 2^k-bit chunk: bit m of plane i is set iff m
    has bit i.  Held for the life of the process up to the widest batch
    table, 2^BATCH_TABLE_BITS bits, and built afresh past it, where the k
    planes of a flat table hold 2 MiB each at k = 24."""
    return _held_planes(k) if k <= BATCH_TABLE_BITS else _held_planes.__wrapped__(k)


@cache
def _held_planes(k: int) -> tuple[int, tuple[int, ...]]:
    size = 1 << k
    planes = []
    for i in range(k):
        run = 1 << i
        plane = ((1 << run) - 1) << run  # 2^i zeros then 2^i ones
        width = 2 * run
        while width < size:  # doubling: linear in the chunk size
            plane |= plane << width
            width *= 2
        planes.append(plane)
    return (1 << size) - 1, tuple(planes)


@cache
def _chunk_constants(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(all ones, planes, levels) of a 2^k-bit chunk: the planes as in
    _chunk_planes, and bit m of level j is set iff m has j bits."""
    ones, planes = _chunk_planes(k)
    levels = [1]
    for i in range(k):
        levels = [a | b << (1 << i) for a, b in zip(levels + [0], [0] + levels)]
    return ones, planes, tuple(levels)


@cache
def _binomials(k: int) -> tuple[int, ...]:
    """C(k, j) for j = 0..k: the set bits of level j of a 2^k-bit chunk."""
    return tuple(comb(k, j) for j in range(k + 1))


def _lane_width(n: int) -> int:
    """The k low vertices that index the bits of one chunk."""
    return min(n, _CHUNK_BITS)


def _blocks(table: int, k: int, c: int) -> list[int]:
    """The 2^c blocks of 2^k bits of a 2^(k+c)-bit table, lowest first;
    k >= 3 unless c = 0."""
    if not c:
        return [table]
    width = 1 << (k - 3)  # bytes per block
    raw = table.to_bytes(width << c, "little")
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _unblocks(blocks: Sequence[int], k: int) -> int:
    """The table whose _blocks of 2^k bits are blocks; k >= 3 unless one."""
    if len(blocks) == 1:
        return blocks[0]
    width = 1 << (k - 3)  # bytes per block
    return int.from_bytes(b"".join(block.to_bytes(width, "little") for block in blocks), "little")


@cache
def _block_levels(k: int, c: int) -> tuple[int, ...]:
    """The levels of _chunk_constants(k) in each of the 2^c blocks of 2^k
    bits of a 2^(k+c)-bit table: bit g << k | m of level j is set iff m has
    j bits.  Level 0 marks the empty mask, lane 0, of every block."""
    levels = []
    for level in _chunk_constants(k)[2]:
        for i in range(k, k + c):
            level |= level << (1 << i)
        levels.append(level)
    return tuple(levels)


def _block_counts(table: int, k: int, c: int) -> Sequence[int]:
    """The set bits of each 2^k-bit block of a 2^(k+c)-bit table, lowest
    block first; 3 <= k <= 7 unless c = 0.  SWAR adds leave each byte its
    own count, and k - 3 shifted adds sum the bytes of each block into its
    low byte; each sum covers at most 2^k <= 128 bits, so none carries into
    the next byte."""
    if not c:
        return (table.bit_count(),)
    ones, planes = _chunk_planes(k + c)
    pairs, nibbles, octets = (ones ^ plane for plane in planes[:3])  # 0x55.., 0x33.., 0x0f..
    table -= table >> 1 & pairs
    table = (table & nibbles) + (table >> 2 & nibbles)
    table = (table + (table >> 4)) & octets
    for i in range(3, k):
        table += table >> (1 << i)
    return table.to_bytes(1 << (k + c - 3), "little")[::1 << (k - 3)]


def _level_counts(table: int, k: int, c: int) -> list[tuple[int, ...]]:
    """Per 2^k-bit block of a 2^(k+c)-bit table, lowest first, the set bits
    at each level of _chunk_constants(k): by whole-table SWAR popcounts
    (_block_counts) up to k = 7, whose byte sums cover at most 2^7 bits, and
    past it block by block (a level holds C(11, 5) = 462 bits at k = 11)."""
    if k <= 7 or not c:
        return list(zip(*(_block_counts(table & level, k, c) for level in _block_levels(k, c))))
    levels = _chunk_constants(k)[2]
    # tuples of lists, as in poly_threshold
    return [tuple([(block & level).bit_count() for level in levels]) for block in _blocks(table, k, c)]


def _close_up(z: int, moves: Sequence[tuple[int, int]], stop: int = -1) -> int:
    """The least superset of z closed under z |= f & z >> shift for each
    (shift, f) in moves: a lane where a force into w applies is set once the
    lane 2^w up, the mask it forces into, is.  stop is a closed table, every
    lane of a chunk, so no round runs once z reaches it; by default -1, which
    no table is."""
    while z != stop:
        before = z
        for shift, f in moves:
            z |= f & z >> shift
        if z == before:
            break
    return z


def _closure_tally(adj: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """The flag table as chunks, and the coefficients.

    Returns (zf, coeffs): bit t of zf[h] is set iff mask h << k | t forces
    every vertex, and coeffs[i] counts the zero forcing sets of size i.

    The chunks take the lane layout and are visited in decreasing order of
    h.  A force v -> w applies at the masks that hold v and N(v) - w and
    miss w: within a chunk, a fixed low-bit pattern gated by a test of h.
    The rule is confluent, so a mask with an applicable force forces every
    vertex iff the mask it forces into does: a force into a high w seeds the
    chunk with bits of the finished chunk h | w, and a chunk that its seeds
    do not fill is closed under the forces into low w until nothing changes
    or every bit is set.  A superset of a zero forcing set forces, so chunk
    h is all ones iff the high set h forces alone.  Such chunks are counted
    per |h|, and each adds C(k, j) to coeffs[|h| + j] at the end in place
    of counting its levels.

    Forces into a high w with one test of h and one target are one entry,
    as are the forces with one need into a low w, each with the OR of their
    patterns.  The forces into low w test only the bits of gate, the OR of
    their needs, so the chunk's moves are kept from the last chunk with the
    same h & gate; in a band order gate is the few high vertices next to
    the low ones, and runs of chunks share their moves.  The chunks that
    are not all ones are summed per |h| into bit-sliced counters, plane i
    holding bit i of each lane's count, by a ripple-carry add (the
    carry-save counting of W. Mula, N. Kurz and D. Lemire, "Faster
    population counts using AVX2 instructions", 2018), and the levels of
    each plane, weighted by 2^i, are counted once at the end.
    """
    k = _lane_width(n)
    ones, planes, levels = _chunk_constants(k)
    low = (1 << k) - 1
    into_high = {}  # (mask, need, target's chunk bit) -> pattern, for the h with h & mask == need
    into_low = {}  # need -> per low target w, the pattern of the forces into w
    gate = 0  # the high bits that some force into a low w needs
    for v in range(n):
        nbrs = adj[v]
        held = nbrs | 1 << v
        need = held >> k
        # the chunk's masks that hold v and its low neighbors; shifted down
        # by 2^w, the masks that hold all of them but a low w and miss w
        full_nbhd = ones
        bits = held & low
        while bits:
            b = bits & -bits
            bits ^= b
            full_nbhd &= planes[b.bit_length() - 1]
        rem = nbrs & low
        if rem:
            gate |= need
            row = into_low.get(need)
            if row is None:
                row = into_low[need] = [0] * k
            while rem:
                b = rem & -rem
                rem ^= b
                w = b.bit_length() - 1
                row[w] |= full_nbhd >> (1 << w)
        rem = nbrs >> k
        while rem:
            b = rem & -rem
            rem ^= b
            force = (need, need ^ b, b)
            into_high[force] = into_high.get(force, 0) | full_nbhd
    into_high = [(*force, pattern) for force, pattern in into_high.items()]
    into_low = into_low.items()

    top = (1 << (n - k)) - 1
    zf = [0] * (top + 1)
    coeffs = [0] * (n + 1)
    settled = {}  # |h| -> the chunks that are all ones
    counters = {}  # |h| -> the other chunks' sum: bit t of plane i is bit i of lane t's count
    key = -1  # h & gate of the moves built last; no h gives -1
    for h in range(top, -1, -1):
        z = 1 << low if h == top else 0  # V forces every vertex
        for mask, need, target, pattern in into_high:
            if h & mask == need:
                z |= pattern & zf[h | target]
        if z != ones:  # else h forces alone, and the forces into low w close up nothing
            if h & gate != key:  # the forces into low w test only the bits of gate
                key = h & gate
                f = ()  # per low w, the OR of the rows whose need h holds
                for need, row in into_low:
                    if key & need == need:
                        f = list(map(or_, f, row)) if f else row
                moves = [(1 << w, pattern) for w, pattern in enumerate(f) if pattern]
            z = _close_up(z, moves, ones)
        zf[h] = z
        base = h.bit_count()
        if z == ones:
            settled[base] = settled.get(base, 0) + 1
        else:  # a ripple-carry add into the planes
            count = counters.setdefault(base, [])
            for i, plane in enumerate(count):
                count[i] = plane ^ z
                z &= plane
                if not z:
                    break
            else:
                count.append(z)
    for base, count in counters.items():
        for i, plane in enumerate(count):
            for j, level in enumerate(levels, base):
                coeffs[j] += (plane & level).bit_count() << i
    if settled:  # empty in one chunk unless n = 0
        for base, count in settled.items():
            for j, c in enumerate(_binomials(k)):
                coeffs[base + j] += count * c
    return zf, coeffs


def _joined(zf: Sequence[int], n: int) -> int:
    """The zf chunks of _closure_tally(adj, n) as one 2^n-bit int."""
    return _unblocks(zf, _lane_width(n))


# The widest batch: the flag tables of up to 2^BATCH_BITS graphs at once, in
# tables of up to 2^BATCH_TABLE_BITS bits, the sweep's at n = 7.
BATCH_BITS = 10
BATCH_TABLE_BITS = 17


def _batch_bits(n: int) -> int:
    """The log2 of the graphs per batch at order n, whoever maps the batches
    and with however many processes: every graph of the order, up to
    2^BATCH_BITS graphs in a table of up to 2^BATCH_TABLE_BITS bits, which
    leaves every order up to 7 its full width, and one graph below n = 3,
    where tables fill no byte."""
    return max(0, min(BATCH_BITS, comb(n, 2), BATCH_TABLE_BITS - n)) if n >= 3 else 0


def _batch_edges(pairs: Sequence[tuple[int, int]], n: int, base: int, b: int, reverse: bool = False) -> tuple:
    """(all ones, planes, nbrs) of the batch of graphs with edge masks
    base + g, g < 2^b, for base a multiple of 2^b: lane g << n | m of a
    2^(n+b)-bit int is graph g at mask m, or with reverse graph 2^b - 1 - g,
    the block order of a reversal of the whole int.  Of the planes of
    _chunk_planes(n + b), plane x < n holds the masks with x and plane n + i
    the graphs with edge i < b (its complement with reverse); nbrs[v] lists
    (w, the lanes whose graph has edge vw), all ones itself for an edge of
    every graph.
    """
    ones, planes = _chunk_planes(n + b)
    edge = [ones if base >> i & 1 else 0 for i in range(len(pairs))]
    edge[:b] = [ones ^ plane for plane in planes[n:]] if reverse else planes[n:]
    nbrs = [[] for _ in range(n)]
    for e, (u, v) in zip(edge, pairs):
        if e:
            nbrs[u].append((v, e))
            nbrs[v].append((u, e))
    return ones, planes, nbrs


def _threshold_edges(length: int, base: int, b: int) -> tuple:
    """(all ones, planes, nbrs), as _batch_edges gives them, of the batch of
    threshold graphs whose canonical connected strings (as
    sweeps.canonical_connected_strings lists them) have free bits base + g,
    g < 2^b, for base a multiple of 2^b and b <= length - 2: symbol p of
    string bits is bit p - 1 of bits for 1 <= p <= length - 2, symbol 0
    copies symbol 1 and the last symbol is 1, and {j, k}, j < k, is an edge
    iff symbol k is 1.  The lanes of symbol p are plane length + p - 1 of
    _chunk_planes(length + b) for p <= b, all ones itself or 0 by bit
    p - 1 of base past b, and all ones for the last symbol."""
    ones, planes = _chunk_planes(length + b)
    symbol = [0, *planes[length:], *(ones if base >> i & 1 else 0 for i in range(b, length - 2)), ones]
    return ones, planes, [[(w, symbol[max(v, w)]) for w in range(length) if w != v and symbol[max(v, w)]]
                          for v in range(length)]


@cache
def _block_bases(n: int, b: int) -> int:
    """The low end, lane 0, of each 2^n-bit block of a 2^(n+b)-bit table."""
    base = 1
    for i in range(n, n + b):
        base |= base << (1 << i)
    return base


def _bit_lanes(rows: Sequence[int], n: int, b: int, low: int = 0) -> list[int]:
    """Per bit c = low..n-1, the 2^(n+b)-bit int whose block g of 2^n bits
    is all ones iff rows[g], an int of n bits, has bit c, for up to 2^b
    rows; the blocks past the rows are 0.  The rows are stacked at the low
    ends of their blocks, a byte at a time, in one int; each bit is cut
    from the stack by a shift and _block_bases and spread over its blocks
    by (s << 2^n) - s.  A bit that 2^b rows have gives all ones itself,
    _chunk_planes(n + b)'s object, and a bit that no row has gives 0.
    n >= 3 unless b = 0."""
    ones = _chunk_planes(n + b)[0]
    step = 1 << max(0, n - 3)  # bytes per block
    buf = bytearray(step << b)
    for k in range(0, n, 8):
        buf[k >> 3:len(rows) * step:step] = bytes([row >> k & 255 for row in rows])
    stack = int.from_bytes(buf, "little")
    base = _block_bases(n, b)
    lanes = []
    for c in range(low, n):
        s = stack >> c & base
        lanes.append(ones if s == base else (s << (1 << n)) - s if s else 0)
    return lanes


def _list_edges(adjs: Sequence[Sequence[int]], n: int, b: int) -> tuple:
    """(all ones, planes, nbrs), as _batch_edges gives them, of the graphs
    on n vertices with adjacency lists adjs, up to 2^b of them: block g of
    each lane is graph g, and the blocks past the list are edgeless graphs.
    The lanes of the pairs {u, v}, v > u, are cut from one stack of the
    graphs' rows of u (_bit_lanes)."""
    ones, planes = _chunk_planes(n + b)
    nbrs = [[] for _ in range(n)]
    for u in range(n - 1):
        for v, e in enumerate(_bit_lanes([adj[u] for adj in adjs], n, b, u + 1), u + 1):
            if e:
                nbrs[u].append((v, e))
                nbrs[v].append((u, e))
    return ones, planes, nbrs


def _lane_moves(ones: int, planes: Sequence[int], nbrs: Sequence[Sequence[tuple[int, int]]], n: int) -> list[int]:
    """Per vertex w, the lanes of a batch (_lane_tally) where some force
    into w applies.  A force v -> w applies where the mask holds v and
    misses w, and an "at least two" accumulator over v's neighbors outside
    the mask rules out any other; the lanes where some neighbor of w holds
    and misses no other neighbor are gathered per w and cut to the masks
    that miss w once.  An edge lane that is all ones itself costs no AND.
    Its per-vertex tables are freed on return, before the close-up."""
    missing = [ones ^ plane for plane in planes[:n]]  # per w: the masks that miss w
    reach = [0] * n  # per w: the lanes where a neighbor of w holds and misses no other neighbor
    for v, edges in enumerate(nbrs):
        one = two = 0
        for w, e in edges:
            m = missing[w] if e is ones else e & missing[w]  # lanes with edge vw whose mask misses w
            two |= one & m
            one |= m
        alone = planes[v] & (ones ^ two)  # lanes where v holds and misses at most one neighbor
        for w, e in edges:
            reach[w] |= alone if e is ones else alone & e
    for w, m in enumerate(missing):
        reach[w] &= m
    return reach


def _lane_tally(ones: int, planes: Sequence[int], nbrs: Sequence[Sequence[tuple[int, int]]], n: int,
                b: int) -> tuple[int, list[tuple[int, ...]]]:
    """The flag tables of 2^b graphs on n vertices, laid out in lanes by
    _batch_edges, _threshold_edges or _list_edges (n >= 3 if b > 0, so that
    tables fill bytes), joined: (zf, counts), where block g of the
    2^(n+b)-bit int zf and the tuple counts[g] are graph g's _closure_tally,
    its zf chunks joined.  A lane with a force into w (_lane_moves) reads
    zf 2^w lanes up, in its own block, as in _closure_tally.
    """
    moves = _lane_moves(ones, planes, nbrs, n)
    z = ones
    for plane in planes[:n]:
        z &= plane  # V forces every vertex
    z = _close_up(z, [(1 << w, f) for w, f in enumerate(moves) if f])  # the empty mask forces no graph
    return z, _level_counts(z, n, b)


def _batch_tally(pairs: Sequence[tuple[int, int]], n: int, base: int, b: int,
                 edges: tuple | None = None) -> tuple[int, list[tuple[int, ...]]]:
    """_lane_tally of the batch of _batch_edges(pairs, n, base, b), or of
    edges, those lanes when the caller has built them: block g of zf and
    counts[g] are _closure_tally(_edge_mask_adj(pairs, n, base + g), n)."""
    return _lane_tally(*(edges or _batch_edges(pairs, n, base, b)), n, b)


def _threshold_tally(length: int, base: int, b: int) -> tuple[int, list[tuple[int, ...]]]:
    """_lane_tally of the batch of _threshold_edges(length, base, b): block
    g and counts[g] are the flag table of the threshold graph of the string
    with free bits base + g."""
    return _lane_tally(*_threshold_edges(length, base, b), length, b)


def _list_tally(adjs: Sequence[Sequence[int]], n: int, b: int) -> tuple[int, list[tuple[int, ...]]]:
    """_lane_tally of the batch of _list_edges(adjs, n, b): block g and
    counts[g] are the flag table of the graph adjs[g], g < len(adjs)."""
    return _lane_tally(*_list_edges(adjs, n, b), n, b)


def zf_polynomial(g: Graph, engine: str = "table") -> ZfPolynomial:
    """Exact coefficients by enumerating all 2^n subsets.

    ``engine="table"`` shares forcing work across subsets through one flag
    bit per subset, 2^12 subsets per big-int operation, at every order up
    to the enumeration cap (_closure_tally).  It reads the coefficients
    alone, so past one chunk it tallies over a Cuthill-McKee relabeling of
    g where its high vertices force alone (_band_order), as the
    coefficients do not depend on the labels.  ``engine="sweep"`` counts
    each size with count_zfs, an independent sweep closure per subset; it
    is the differential oracle for the table (exact agreement is tested).
    Both give the empty graph 1 (local convention).
    """
    if engine == "table":
        _within_cap(g.n)
        order = _band_order(g.adj, g.n)
        coeffs = _closure_tally(g.adj if order is None else _relabeled(g.adj, order), g.n)[1]
    elif engine == "sweep":
        coeffs = [count_zfs(g, i) for i in range(g.n + 1)]
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return ZfPolynomial(g.n, tuple(coeffs))


def _within_cap(n: int) -> None:
    """The one enumeration cap check: raise SizeCapError for a table of 2^n
    subsets past the cap."""
    cap = enumeration_cap()
    if n > cap:
        raise SizeCapError(f"enumeration over {n} vertices exceeds cap {cap}")


def _flag_table(g: Graph) -> tuple[int, list[int]]:
    """_closure_tally of a public graph, within the enumeration cap, in the
    graph's own labels: its zf bits as one 2^n-bit int, and its
    coefficients."""
    _within_cap(g.n)
    zf, coeffs = _closure_tally(g.adj, g.n)
    return _joined(zf, g.n), coeffs


def _band_order(adj: Sequence[int], n: int) -> list[int] | None:
    """The vertices to relabel 0..n-1, in that order, so that the flag
    table's high vertices force alone: the first n - k vertices of
    _cuthill_mckee become the high vertices k..n-1, and the other k, in
    that order, the low vertices 0..k-1.  None when there is no high vertex
    or when those n - k do not force every vertex; the rest of the order is
    then never built.

    No n - k vertices force a graph of m edges if the least degree or
    n - m, a floor on the components, each of which needs a vertex, exceeds
    n - k, or if m exceeds (n - k)(n + k - 1)/2: a vertex that has forced
    has no uncolored neighbor left, so a vertex, when forced, sees only the
    n - k ends of the forcing chains among the colored ones, and the n - k
    high vertices span at most C(n - k, 2) edges.  The band keeps each high
    set's forces near the chunks that read them: more chunks are all ones,
    and the close-up runs fewer rounds.
    """
    k = _lane_width(n)
    high = n - k
    if not high:
        return None
    degree = [a.bit_count() for a in adj]
    edges = sum(degree) >> 1
    if min(degree) > high or n - edges > high or 2 * edges > high * (n + k - 1):
        return None
    walk = _cuthill_mckee(adj, degree)
    top = list(itertools.islice(walk, high))
    if _sweep(adj, mask_of(top))[1] != (1 << n) - 1:
        return None
    return [*walk, *top]


def _cuthill_mckee(adj: Sequence[int], degree: Sequence[int]):
    """The vertices in Cuthill-McKee order (E. Cuthill and J. McKee,
    "Reducing the bandwidth of sparse symmetric matrices", 1969), lazily: a
    breadth-first search that visits the new neighbors of each vertex by
    ascending degree, ties by label, started in each component at its first
    least-degree vertex."""
    seen = 0
    for start in sorted(range(len(adj)), key=degree.__getitem__):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        queue = [start]
        for v in queue:  # the queue grows while it is read
            yield v
            new = adj[v] & ~seen
            if new & (new - 1):
                queue += sorted(vertices_of(new), key=degree.__getitem__)
            elif new:
                queue.append(new.bit_length() - 1)
            seen |= new


def _relabeled(adj: Sequence[int], order: Sequence[int]) -> list[int]:
    """The adjacency with vertex order[i] relabeled i."""
    label = [0] * len(order)
    for i, v in enumerate(order):
        label[v] = 1 << i
    rows = []
    for v in order:
        row, rem = 0, adj[v]
        while rem:
            b = rem & -rem
            rem ^= b
            row |= label[b.bit_length() - 1]
        rows.append(row)
    return rows


def count_zfs(g: Graph, size: int) -> int:
    """Number of zero forcing sets of one given cardinality."""
    n = g.n
    if not 0 <= size <= n:
        raise ValueError(f"size {size} out of range for order {n}")
    _within_cap(n)
    full = g.vertex_mask
    return sum(_sweep(g.adj, mask_of(combo))[1] == full for combo in itertools.combinations(range(n), size))


def _gather_runs(mask: int) -> tuple[tuple[int, int], ...]:
    """(run, shift) per maximal run of consecutive set bits of mask, lowest
    first: _gather moves each run down to the next free low bits with one
    mask and one shift."""
    runs = []
    rest, below = mask, 0
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)  # the carry clears the lowest run and stops above it
        runs.append((run, low.bit_length() - 1 - below))
        below += run.bit_count()
        rest ^= run
    return tuple(runs)


def _gather(bits: int, runs: Sequence[tuple[int, int]]) -> int:
    """The bits of bits at the set bits of the mask of _gather_runs, packed
    into the low bits in order."""
    out = 0
    for run, shift in runs:
        out |= (bits & run) >> shift
    return out


def _induced_adj(adj: Sequence[int], mask: int) -> list[int]:
    """The adjacency induced by mask, relabeled to 0..k-1 in vertex order:
    each maximal run of consecutive vertices of mask moves down to its new
    labels with one mask and one shift."""
    runs = _gather_runs(mask)
    return [_gather(adj[v], runs) for v in vertices_of(mask)]


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced by a vertex mask, relabeled to 0..k-1 in vertex order."""
    adj = _induced_adj(g.adj, mask)
    return Graph(len(adj), tuple(adj))


def _component_product(adj: Sequence[int], n: int, tally) -> list[int]:
    """The convolution of tally(adj, component vertex mask) over the
    connected components: the graph's coefficients if tally gives each
    component's."""
    product = [1]
    for comp in _connected_components(adj, n):
        product = _convolve(product, tally(adj, comp))
    return product


def zf_polynomial_by_components(g: Graph) -> ZfPolynomial:
    """Product of the per-component polynomials; equals zf_polynomial(g).
    Each component, not g, must be within the enumeration cap."""
    return ZfPolynomial(g.n, tuple(_component_product(
        g.adj, g.n, lambda adj, comp: zf_polynomial(induced_subgraph(g, comp)).coeffs)))
