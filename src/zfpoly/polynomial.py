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
from math import comb
from typing import Sequence

from .forcing import _sweep_closure
from .graphs import Graph, SizeCapError, connected_components, vertices_of

# Full-subset enumeration is exponential: the 2^24 subsets of wheel:24 take
# 14-16 s and a 16 MiB flag table (2-core Xeon, Python 3.11).
DEFAULT_ENUMERATION_CAP = 24
CAP_ENV_VAR = "ZFPOLY_MAX_N"

# Per-subset flags of the shared table: the subset forces every vertex, and
# the subset is closed (no force applies).
ZF = 1
CLOSED = 2


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
        if any(c < 0 for c in self.coeffs):
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
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("all coefficients are zero")

    def is_unimodal(self) -> bool:
        """True iff the nonzero coefficient segment weakly rises then weakly falls."""
        support = [i for i, c in enumerate(self.coeffs) if c]
        if not support:
            return True
        seg = self.coeffs[support[0]:support[-1] + 1]
        i = 0
        while i + 1 < len(seg) and seg[i + 1] >= seg[i]:
            i += 1
        while i + 1 < len(seg) and seg[i + 1] <= seg[i]:
            i += 1
        return i == len(seg) - 1

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


def multiply(p: ZfPolynomial, q: ZfPolynomial) -> ZfPolynomial:
    """Coefficient convolution; the result has order p.n + q.n."""
    out = [0] * (p.n + q.n + 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out[i + j] += a * b
    return ZfPolynomial(p.n + q.n, tuple(out))


def _closure_tally(adj: Sequence[int], n: int) -> tuple[bytearray, list[int]]:
    """One flag byte per subset (ZF, CLOSED), and per size the count of
    subsets that force every vertex (the polynomial's coefficients).

    Masks are visited in decreasing order.  A mask with an applicable force
    has the closure of the larger mask it forces into (the rule is
    confluent), so it forces every vertex iff that larger mask does; a mask
    with no applicable force is its own closure.  Every byte starts as ZF,
    the common case, and only the exceptions are written.
    """
    full = (1 << n) - 1
    flags = bytearray((ZF,)) * (full + 1)
    flags[full] = ZF | CLOSED
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for mask in range(full - 1, -1, -1):
        out = full ^ mask
        rem = mask
        while rem:
            b = rem & -rem
            rem ^= b
            unc = adj[b.bit_length() - 1] & out
            if unc.bit_count() == 1:
                if flags[mask | unc] & ZF:
                    coeffs[mask.bit_count()] += 1
                else:
                    flags[mask] = 0
                break
        else:
            flags[mask] = CLOSED
    return flags, coeffs


def _coeffs_by_sweep(adj: tuple[int, ...], n: int) -> list[int]:
    full = (1 << n) - 1
    coeffs = [0] * (n + 1)
    for mask in range(full + 1):
        if _sweep_closure(adj, mask) == full:
            coeffs[mask.bit_count()] += 1
    return coeffs


def zf_polynomial(g: Graph, engine: str = "table") -> ZfPolynomial:
    """Exact coefficients by enumerating all 2^n subsets.

    ``engine="table"`` shares forcing work across subsets through one flag
    byte per subset, at every order up to the enumeration cap.
    ``engine="sweep"`` runs an independent sweep closure per subset; it is
    the differential oracle for the table (exact agreement is tested).
    """
    n = g.n
    if n == 0:
        # the empty set forces the empty graph; local convention, see README
        return ZfPolynomial(0, (1,))
    cap = enumeration_cap()
    if n > cap:
        raise SizeCapError(f"enumeration over {n} vertices exceeds cap {cap}")
    if engine == "table":
        _, coeffs = _closure_tally(g.adj, n)
    elif engine == "sweep":
        coeffs = _coeffs_by_sweep(g.adj, n)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return ZfPolynomial(n, tuple(coeffs))


def count_zfs(g: Graph, size: int) -> int:
    """Number of zero forcing sets of one given cardinality."""
    n = g.n
    if not 0 <= size <= n:
        raise ValueError(f"size {size} out of range for order {n}")
    cap = enumeration_cap()
    if n > cap:
        raise SizeCapError(f"enumeration over {n} vertices exceeds cap {cap}")
    if n == 0:
        return 1
    full = (1 << n) - 1
    count = 0
    for combo in itertools.combinations(range(n), size):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if _sweep_closure(g.adj, mask) == full:
            count += 1
    return count


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced by a vertex mask, relabeled to 0..k-1 in vertex order."""
    verts = vertices_of(mask)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        rem = g.adj[v] & mask
        while rem:
            b = rem & -rem
            rem ^= b
            adj[index[v]] |= 1 << index[b.bit_length() - 1]
    return Graph(len(verts), tuple(adj))


def zf_polynomial_by_components(g: Graph) -> ZfPolynomial:
    """Product of the per-component polynomials; equals zf_polynomial(g)."""
    result = ZfPolynomial(0, (1,))
    for comp in connected_components(g):
        result = multiply(result, zf_polynomial(induced_subgraph(g, comp)))
    return result
