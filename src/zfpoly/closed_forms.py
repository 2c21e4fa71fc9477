"""Closed-form zero forcing polynomials for the standard families.

Complete graphs, complete multipartite graphs, paths, cycles, wheels (via
inclusion-exclusion over consecutive runs of a cycle), and threshold graphs
(via a block-index expansion over the generating string).
"""
from __future__ import annotations

import operator
from math import comb
from typing import Sequence

from .graphs import BlockPartition, _require_binary
from .polynomial import ZfPolynomial, _bit_lanes, _chunk_planes


def binom(a: int, b: int) -> int:
    """Binomial coefficient extended to 0 for b > a and any negative argument."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


def poly_complete(n: int) -> ZfPolynomial:
    """x^n + n*x^(n-1); a single vertex gives x."""
    if n < 1:
        raise ValueError("complete graph polynomial requires n >= 1")
    if n == 1:
        return ZfPolynomial(1, (0, 1))
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    coeffs[n - 1] = n
    return ZfPolynomial(n, tuple(coeffs))


def poly_multipartite(parts: list[int]) -> ZfPolynomial:
    """Complete multipartite polynomial; valid only when every part has size >= 2."""
    if len(parts) < 2:
        raise ValueError("need at least 2 parts")
    if any(a < 2 for a in parts):
        raise ValueError("every part must have size >= 2")
    n = sum(parts)
    cross = 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            cross += parts[i] * parts[j]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    coeffs[n - 1] = n
    coeffs[n - 2] = cross
    return ZfPolynomial(n, tuple(coeffs))


def poly_path(n: int) -> ZfPolynomial:
    """Coefficient i is C(n,i) - C(n-i-1,i)."""
    if n < 1:
        raise ValueError("path polynomial requires n >= 1")
    coeffs = [0] * (n + 1)
    for i in range(1, n + 1):
        coeffs[i] = binom(n, i) - binom(n - i - 1, i)
    return ZfPolynomial(n, tuple(coeffs))


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError(f"{num} is not divisible by {den}; formula misuse")
    return num // den


def poly_cycle(n: int) -> ZfPolynomial:
    """Coefficient i is C(n,i) - (n/i)*C(n-i-1,i-1) for i >= 2.

    The fraction is evaluated multiply-then-divide; each whole term counts
    sets and is integral even though n/i alone need not be.
    """
    if n < 3:
        raise ValueError("cycle polynomial requires n >= 3")
    coeffs = [0] * (n + 1)
    for i in range(2, n + 1):
        coeffs[i] = binom(n, i) - _exact_div(n * binom(n - i - 1, i - 1), i)
    return ZfPolynomial(n, tuple(coeffs))


def count_consecutive_selections(n: int, k: int, m: int) -> int:
    """Number of k-subsets of an n-cycle containing m consecutive vertices.

    Inclusion-exclusion over the runs' starting positions.  The k = n case
    (the full cycle, which trivially contains any m <= n in a row) lies
    outside the alternating sum's derivation and is defined directly.
    """
    if m < 3:
        raise ValueError("run length m must be >= 3")
    if n < 3:
        raise ValueError("cycle length n must be >= 3")
    if k < m or k > n:
        return 0
    if k == n:  # then n >= k >= m
        return 1
    total = 0
    for t in range(1, n + 1):
        b1 = binom(n - m * t - 1, t - 1)
        b2 = binom(n - (m + 1) * t, k - m * t)
        term = _exact_div(n * b1, t) * b2
        total += term if t % 2 else -term
    return total


def poly_wheel(n: int) -> ZfPolynomial:
    """Hub-containing sets counted via the rim cycle, hub-free sets via
    consecutive-run selections of length 3 on the rim."""
    if n < 5:
        raise ValueError("wheel polynomial requires n >= 5 (use poly_complete(4) for the 4-wheel)")
    rim = poly_cycle(n - 1)
    coeffs = [0] * (n + 1)
    for i in range(1, n + 1):
        coeffs[i] = rim.coeffs[i - 1] + count_consecutive_selections(n - 1, i, 3)
    return ZfPolynomial(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# Threshold graphs


def _require_usable(b: str) -> None:
    """The threshold closed forms' precondition on a generating string: binary,
    length >= 2, canonical (first two symbols equal) and connected (last
    symbol '1')."""
    _require_binary(b)
    if len(b) < 2:
        raise ValueError("threshold closed forms require a string of length >= 2")
    if b[0] != b[1]:
        raise ValueError("binary string must start with two equal symbols")
    if b[-1] != "1":
        raise ValueError("binary string must end in '1' (connected threshold graph)")


def _exclusion_fold(runs: Sequence[int], unit, zero, extend, merge):
    """The exclusion sets of the threshold graph whose string has the run
    lengths runs (block i, 1-based, has runs[i - 1] vertices), the sets of
    block indices from which a zero forcing set excludes exactly one vertex
    each, folded into one value: unit stands for the empty set alone and
    zero for no set, extend(value, i) adds block i to each set that value
    stands for, and merge(a, b) joins two values; extend must distribute
    over merge.  The caller checks the string (_require_usable).

    Built left to right over the 1-blocks.  A set is pinned exactly when a
    1-block has been excluded and no included 0-vertex follows the
    rightmost excluded 1-block; a pinned set cannot skip a length-1 0-block
    while also excluding from the next 1-block.  Each step takes 1-block s
    and the 0-block before it, none before block 1.  The steps give each
    set exactly one path, so a fold of weights counts each set once.
    """
    t = len(runs)
    free, pinned = unit, zero
    for s in range(2 - t % 2, t + 1, 2):  # the 1-blocks: every other block, ending at block t
        gap = s - 1  # the 0-block before block s, 0 before block 1
        narrow = gap and runs[gap - 1] == 1
        whole = merge(free, pinned)
        free = merge(whole, extend(free if narrow else whole, gap)) if gap else whole
        pinned = merge(extend(free, s), extend(pinned, gap)) if narrow else extend(free, s)
    return merge(free, pinned)


def block_exclusion_sets(blocks: BlockPartition) -> set[frozenset[int]]:
    """All sets of block indices (1-based) from which a zero forcing set of the
    threshold graph excludes exactly one vertex each (_exclusion_fold)."""
    _require_usable(blocks.source)
    return _exclusion_fold([length for _, length in blocks.blocks], {frozenset()}, set(),
                           lambda sets, i: {subset | {i} for subset in sets}, operator.or_)


def poly_threshold(b: str) -> ZfPolynomial:
    """Zero forcing polynomial of the threshold graph generated by ``b``.

    Requires a canonical connected string of length >= 2 (first two symbols
    equal, last symbol '1').  For non-canonical strings, compose the graph
    builder with brute-force enumeration instead.

    The exclusion sets are folded as weights: field e of one int, n + 1
    bits wide, counts the ways to exclude e vertices, one from each block
    of a set, so that excluding from block i is one multiply by |B_i| and
    one shift.  No count reaches 2^n, so no field carries into the next.
    The string is checked once and its run lengths taken in one pass.
    """
    _require_usable(b)
    runs = []
    prev = ""
    for c in b:
        if c == prev:
            runs[-1] += 1
        else:
            runs.append(1)
            prev = c
    n = len(b)
    width = n + 1
    packed = _exclusion_fold(runs, 1, 0, lambda weights, i: weights * runs[i - 1] << width, operator.add)
    field = (1 << width) - 1
    # a tuple of a list, not of a generator, whose tuple is resized to fit and
    # then freed onto the free list of another size, where such tuples pile up
    return ZfPolynomial(n, tuple([packed >> (n - i) * width & field for i in range(n + 1)]))


def _threshold_lanes(symbols: Sequence[int], ones: int, planes: Sequence[int]) -> int:
    """threshold_zfs_check on one (string, set) pair per lane: bit m of
    ``symbols[i]`` is set iff the string of lane m has a '1' at position i,
    bit m of ``planes[i]`` iff the set of lane m includes position i,
    ``ones`` has every lane set, and bit m of the result is set iff the set
    of lane m passes.  One pass over the positions; a new block starts in
    each lane where its symbol changes.  One string passes ``ones`` or 0 as
    each symbol.
    """
    bad = 0
    block = 0  # the current block already excludes a vertex
    blocked = 0  # an excluded 1-vertex with no included 0-vertex since
    prev = symbols[0]
    for sym, plane in zip(symbols, planes):
        out = ones ^ plane
        if sym is not prev:  # one object at both positions changes no lane's symbol
            block &= ones ^ sym ^ prev
            prev = sym
        bad |= out & (block | blocked & sym)
        blocked = blocked & out | sym & (blocked | out)  # set by a 1-vertex, cleared by a 0-vertex
        block |= out
    return ones ^ bad


def threshold_zfs_check(b: str, included: int) -> bool:
    """Direct zero-forcing-set test on a threshold graph's generating string.

    ``included`` is a bitmask over string positions.  True iff the set
    excludes at most one vertex per block and, between any two excluded
    1-vertices, some 0-vertex is included.  It is the one-lane run of the
    pass that ``_threshold_zfs_bits`` runs on every subset at once.
    """
    _require_usable(b)
    if included >> len(b):  # a negative mask shifts to -1
        raise ValueError("included mask has bits outside the string")
    return bool(_threshold_lanes(list(map(int, b)), 1, [included >> i & 1 for i in range(len(b))]))


def _threshold_zfs_bits(b: str) -> int:
    """The characterization on every subset at once, as one 2^n-bit int:
    bit m is set iff ``threshold_zfs_check(b, m)``.

    Built from the string alone, never from the graph's flag table, so the
    two stay independent computations of the zero forcing sets.  One pass
    over the planes of _chunk_planes(n): this oracle runs only at orders
    small enough for a flat table.
    """
    _require_usable(b)
    ones, planes = _chunk_planes(len(b))
    return _threshold_lanes([ones if c == "1" else 0 for c in b], ones, planes)


def _threshold_batch_bits(strings: Sequence[str], b: int) -> int:
    """_threshold_zfs_bits of up to 2^b strings of one length at once:
    block g of the result, 2^length bits, is the table of strings[g], and
    the blocks past the list read every symbol as '0'.  The symbol lanes
    are cut from the strings' characters (_bit_lanes), never from a graph's
    lanes, so that the table stays independent of the flag tables it is
    checked against."""
    length = len(strings[0])
    symbols = _bit_lanes([int(s[::-1], 2) for s in strings], length, b)
    return _threshold_lanes(symbols, *_chunk_planes(length + b))
