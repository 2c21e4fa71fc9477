"""Closed-form zero forcing polynomials for the standard families.

Complete graphs, complete multipartite graphs, paths, cycles, wheels (via
inclusion-exclusion over consecutive runs of a cycle), and threshold graphs
(via a block-index expansion over the generating string).
"""
from __future__ import annotations

from math import comb

from .graphs import BlockPartition, _require_binary, block_partition
from .polynomial import ZfPolynomial, _chunk_planes


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


def block_exclusion_sets(blocks: BlockPartition) -> set[frozenset[int]]:
    """All sets of block indices (1-based) from which a zero forcing set of the
    threshold graph excludes exactly one vertex each.

    Built left to right over the 1-blocks.  Each state pairs an index set with
    an indicator bit that is 1 exactly when a 1-block has been excluded and no
    included 0-vertex follows the rightmost excluded 1-block; in that state a
    length-1 0-block cannot be skipped while also excluding from the next
    1-block.
    """
    _require_usable(blocks.source)
    t = len(blocks.blocks)
    if t % 2 == 1:
        state: set[tuple[frozenset[int], int]] = {(frozenset(), 0), (frozenset({1}), 1)}
        s = 3
    else:
        state = {
            (frozenset(), 0),
            (frozenset({1}), 0),
            (frozenset({2}), 1),
            (frozenset({1, 2}), 1),
        }
        s = 4
    while s <= t:
        gap_is_single = blocks.blocks[s - 2][1] == 1  # |B_{s-1}|
        nxt: set[tuple[frozenset[int], int]] = set()
        for subset, k in state:
            if k == 1 and gap_is_single:
                nxt.add((subset, 0))
                nxt.add((subset | {s - 1}, 1))
                nxt.add((subset | {s}, 1))
            else:
                nxt.add((subset, 0))
                nxt.add((subset | {s - 1}, 0))
                nxt.add((subset | {s}, 1))
                nxt.add((subset | {s - 1, s}, 1))
        state = nxt
        s += 2
    return {subset for subset, _ in state}


def poly_threshold(b: str) -> ZfPolynomial:
    """Zero forcing polynomial of the threshold graph generated by ``b``.

    Requires a canonical connected string of length >= 2 (first two symbols
    equal, last symbol '1').  For non-canonical strings, compose the graph
    builder with brute-force enumeration instead.
    """
    blocks = block_partition(b)
    n = len(b)
    sizes = [length for _, length in blocks.blocks]
    coeffs = [0] * (n + 1)
    for subset in block_exclusion_sets(blocks):
        prod = 1
        for i in subset:
            prod *= sizes[i - 1]
        coeffs[n - len(subset)] += prod
    return ZfPolynomial(n, tuple(coeffs))


def _threshold_lanes(b: str, ones: int, planes) -> int:
    """threshold_zfs_check on one set per lane: bit m of ``planes[i]`` is set
    iff set m includes position i, ``ones`` has every lane set, and bit m of
    the result is set iff set m passes.  One pass over the string; a new
    block starts wherever the symbol changes.
    """
    bad = 0
    block = 0  # the current block already excludes a vertex
    blocked = 0  # an excluded 1-vertex with no included 0-vertex since
    prev = ""
    for c, plane in zip(b, planes):
        out = ones ^ plane
        if c != prev:
            prev = c
            block = 0
        if c == "1":
            bad |= out & (block | blocked)
            blocked |= out
        else:
            bad |= out & block
            blocked &= out
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
    return bool(_threshold_lanes(b, 1, [included >> i & 1 for i in range(len(b))]))


def _threshold_zfs_bits(b: str) -> int:
    """The characterization on every subset at once, as one 2^n-bit int:
    bit m is set iff ``threshold_zfs_check(b, m)``.

    Built from the string alone, never from the graph's flag table, so the
    two stay independent computations of the zero forcing sets.  One pass
    over the planes of _chunk_planes(n): this oracle runs only at orders
    small enough for a flat table.
    """
    _require_usable(b)
    return _threshold_lanes(b, *_chunk_planes(len(b)))
