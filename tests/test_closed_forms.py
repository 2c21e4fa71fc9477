import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_consecutive_count
from zfpoly import (
    binom,
    block_exclusion_sets,
    block_partition,
    complete_multipartite,
    count_consecutive_selections,
    cycle,
    cycle_plus_chord,
    is_zero_forcing_set,
    mask_of,
    path,
    poly_complete,
    poly_cycle,
    poly_multipartite,
    poly_path,
    poly_threshold,
    poly_wheel,
    threshold_from_string,
    threshold_zfs_check,
    wheel,
    zf_polynomial,
)
from zfpoly import polynomial
from zfpoly.closed_forms import _threshold_zfs_bits
from zfpoly.polynomial import _closure_tally
from zfpoly.sweeps import canonical_connected_strings


@pytest.mark.parametrize("a,b,want", [(5, 2, 10), (3, 5, 0), (-1, 0, 0), (4, -2, 0), (0, 0, 1)])
def test_binom_convention(a, b, want):
    assert binom(a, b) == want


def test_poly_complete_values():
    assert poly_complete(4).coeffs == (0, 0, 0, 4, 1)
    assert poly_complete(2).coeffs == (0, 2, 1)
    assert poly_complete(1).coeffs == (0, 1)
    with pytest.raises(ValueError):
        poly_complete(0)


def test_poly_multipartite_values():
    assert poly_multipartite([2, 2]).coeffs == (0, 0, 4, 4, 1)
    assert poly_multipartite([2, 3]).coeffs == (0, 0, 0, 6, 5, 1)


@pytest.mark.parametrize("parts", [[2, 1], [3], [1, 1, 1]])
def test_poly_multipartite_preconditions(parts):
    with pytest.raises(ValueError):
        poly_multipartite(parts)


def test_poly_multipartite_formula_needs_parts_of_two():
    # with a size-1 part the three-term formula would disagree with enumeration
    brute = zf_polynomial(complete_multipartite([2, 1, 1])).coeffs
    assert brute != (0, 0, 5, 4, 1)


def test_poly_path_values():
    assert poly_path(4).coeffs == (0, 2, 6, 4, 1)
    assert poly_path(1).coeffs == (0, 1)
    assert poly_path(7) == zf_polynomial(path(7))
    with pytest.raises(ValueError):
        poly_path(0)


def test_poly_cycle_values():
    assert poly_cycle(4).coeffs == (0, 0, 4, 4, 1)
    assert poly_cycle(6).coeffs[3] == 18
    assert poly_cycle(6) == zf_polynomial(cycle(6))
    assert poly_cycle(3).coeffs == (0, 0, 3, 1)
    with pytest.raises(ValueError):
        poly_cycle(2)


def test_path_subtrahend_vanishes_past_midpoint():
    for n in range(1, 13):
        for i in range((n + 1) // 2, n + 1):
            assert binom(n - i - 1, i) == 0


@pytest.mark.parametrize("n,k,m,want", [(4, 3, 3, 4), (5, 3, 3, 5), (4, 4, 3, 1)])
def test_consecutive_selection_examples(n, k, m, want):
    assert naive_consecutive_count(n, k, m) == want  # oracle confirms the frozen value
    assert count_consecutive_selections(n, k, m) == want


def test_consecutive_selections_match_direct_count_small():
    for m in (3, 4):
        for n in range(3, 11):
            for k in range(n + 1):
                assert count_consecutive_selections(n, k, m) == naive_consecutive_count(n, k, m)


@pytest.mark.parametrize("n,k,m", [(2, 2, 3), (5, 3, 2)])
def test_consecutive_selection_preconditions(n, k, m):
    with pytest.raises(ValueError):
        count_consecutive_selections(n, k, m)


def test_poly_wheel_values():
    assert poly_wheel(5).coeffs == (0, 0, 0, 8, 5, 1)
    assert poly_wheel(6).coeffs == (0, 0, 0, 10, 15, 6, 1)
    assert poly_wheel(6) == zf_polynomial(wheel(6))
    with pytest.raises(ValueError):
        poly_wheel(4)


def test_block_exclusion_sets_single_block():
    got = block_exclusion_sets(block_partition("1111"))
    assert got == {frozenset(), frozenset({1})}


def test_block_exclusion_sets_two_blocks():
    got = block_exclusion_sets(block_partition("0011"))
    assert got == {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}


def test_block_exclusion_sets_narrow_gap():
    got = block_exclusion_sets(block_partition("11011"))
    want = {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert got == want  # {1, 2, 3} is suppressed by the narrow 0-block


def test_block_exclusion_sets_preconditions():
    with pytest.raises(ValueError):
        block_exclusion_sets(block_partition("10"))  # not canonical
    with pytest.raises(ValueError):
        block_exclusion_sets(block_partition("1100"))  # not connected
    with pytest.raises(ValueError):
        block_exclusion_sets(block_partition("1"))  # K1: {} would count as a zero forcing set


def test_poly_threshold_values():
    assert poly_threshold("0011").coeffs == (0, 0, 4, 4, 1)
    assert poly_threshold("11011").coeffs == (0, 0, 0, 8, 5, 1)
    assert poly_threshold("1111").coeffs == (0, 0, 0, 4, 1)


def test_poly_threshold_matches_enumeration():
    for b in ("0011", "11011", "000111", "110011", "00101011"):
        assert poly_threshold(b) == zf_polynomial(threshold_from_string(b))


@pytest.mark.parametrize("b", ["011", "1100", "1", "0"])
def test_poly_threshold_preconditions(b):
    with pytest.raises(ValueError):
        poly_threshold(b)


def test_threshold_zfs_check_examples():
    all4 = 0b1111
    assert threshold_zfs_check("0011", all4 & ~mask_of([0, 2]))
    assert not threshold_zfs_check("0011", all4 & ~mask_of([2, 3]))
    all5 = 0b11111
    assert not threshold_zfs_check("11011", all5 & ~mask_of([0, 2, 4]))


@pytest.mark.parametrize(
    "b,mask",
    [("", 0), ("1", 1), ("0", 0), ("011", 0b111), ("1100", 0b1111), ("1x11", 0b1111), ("0011", 1 << 4), ("0011", -1)],
)
def test_threshold_zfs_check_preconditions(b, mask):
    with pytest.raises(ValueError):
        threshold_zfs_check(b, mask)


def test_threshold_zfs_check_agrees_with_forcing():
    for length in range(2, 9):
        for b in canonical_connected_strings(length):
            g = threshold_from_string(b)
            for mask in range(1 << length):
                assert threshold_zfs_check(b, mask) == is_zero_forcing_set(g, mask)


@pytest.mark.parametrize("width", [polynomial._CHUNK_BITS, 3], ids=["real-width", "width-3"])
def test_threshold_zfs_bits_match_the_flag_table(monkeypatch, width):
    # the characterization table is flat; at width 3 the flag table it is
    # checked against runs through the chunked path
    monkeypatch.setattr(polynomial, "_CHUNK_BITS", width)
    for length in range(2, 11):
        for b in canonical_connected_strings(length):
            g = threshold_from_string(b)
            assert _threshold_zfs_bits(b) == _closure_tally(g.adj, g.n)[0], b


def test_threshold_zfs_bits_match_the_flag_table_past_one_chunk():
    rng = random.Random(1314)
    for length in (13, 13, 13, 14, 14, 14):
        first = rng.choice("01")
        b = first + first + "".join(rng.choice("01") for _ in range(length - 3)) + "1"
        g = threshold_from_string(b)
        assert _threshold_zfs_bits(b) == _closure_tally(g.adj, g.n)[0], b


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="01", min_size=2, max_size=10))
def test_threshold_poly_for_any_canonical_connected_string(b):
    b = b[0] + b  # force the first two symbols equal
    if not b.endswith("1"):
        b = b[:-1] + "1"
    assert poly_threshold(b) == zf_polynomial(threshold_from_string(b))


def test_permuted_one_block_sizes_share_polynomial():
    for k in (3, 4):
        polys = [
            poly_threshold("00".join("1" * s for s in perm))
            for perm in itertools.permutations(range(2, k + 1))
        ]
        assert all(p == polys[0] for p in polys)


def test_chord_invariance_small():
    for n in range(4, 9):
        target = poly_cycle(n)
        for i in range(n):
            for j in range(i + 1, n):
                if (j - i) % n in (1, n - 1):
                    continue
                assert zf_polynomial(cycle_plus_chord(n, i, j)) == target
