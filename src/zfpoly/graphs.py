"""Small-graph toolkit built on integer bitmasks.

Vertices are integers ``0..n-1``.  A vertex set is a plain ``int`` whose bit
``v`` is set iff vertex ``v`` belongs to the set; adjacency is one neighbor
bitmask per vertex.  All graphs are simple and undirected.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# Sanity cap on graph order.  Bitmasks are arbitrary-width Python ints, so
# this is a guard against absurd inputs, not a storage limit; raise it if a
# wider universe is ever needed.
MAX_VERTICES = 64

# Permutation search for isomorphism is only sensible on tiny graphs.
ISO_SEARCH_MAX = 9

# Hamiltonian-path DP allocates a 2^n table.
HAMILTONIAN_MAX = 24

# Exhaustive labeled-graph generation: 2^21 graphs at n = 7.
LABELED_ENUM_MAX = 7


class GraphFormatError(ValueError):
    """Malformed edge-list or graph6 input."""


class SizeCapError(ValueError):
    """An operation was asked to exceed its size guard."""


def vertices_of(mask: int) -> list[int]:
    """Sorted list of vertices in a bitmask set."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus per-vertex neighbor bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.n > MAX_VERTICES:
            raise SizeCapError(f"graph order {self.n} exceeds cap {MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"neighbor bits of vertex {v} out of range")
            if (nb >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            rem = nb
            while rem:
                b = rem & -rem
                rem ^= b
                u = b.bit_length() - 1
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(nb.bit_count() for nb in self.adj)

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in vertices_of(self.adj[u]) if u < v]


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on ``n`` vertices with the given edges (duplicates collapsed)."""
    if n > MAX_VERTICES:
        raise SizeCapError(f"graph order {n} exceeds cap {MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list file format: header line ``n m``, then ``m`` lines ``u v``.

    ``#`` starts a comment; blank lines are ignored.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise GraphFormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad edge-list header: {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad edge-list header: {rows[0]!r}") from exc
    if m < 0 or len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {line!r}") from exc
        edges.append((u, v))
    try:
        return from_edge_list(n, edges)
    except SizeCapError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# graph6 interchange format


_G6_HEADER = b">>graph6<<"


def _g6_order(data: bytes) -> tuple[int, int]:
    """Decode the leading N(n) field, returning (n, bytes consumed)."""
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphFormatError("truncated graph6 order field")
            chunk, consumed = data[2:8], 8
        else:
            if len(data) < 4:
                raise GraphFormatError("truncated graph6 order field")
            chunk, consumed = data[1:4], 4
        n = 0
        for b in chunk:
            if not 63 <= b <= 126:
                raise GraphFormatError(f"invalid graph6 byte {b}")
            n = (n << 6) | (b - 63)
        return n, consumed
    if not 63 <= data[0] <= 125:
        raise GraphFormatError(f"invalid graph6 order byte {data[0]}")
    return data[0] - 63, 1


def from_graph6(text: str | bytes) -> Graph:
    """Decode a graph6 string (standard bit-packed upper-triangle encoding)."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise GraphFormatError("empty graph6 string")
    n, offset = _g6_order(data)
    if n > MAX_VERTICES:
        raise SizeCapError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    body = data[offset:]
    if len(body) != (nbits + 5) // 6:
        raise GraphFormatError("graph6 body has the wrong length")
    adj = [0] * n
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    pos = 0
    for b in body:
        if not 63 <= b <= 126:
            raise GraphFormatError(f"invalid graph6 byte {b}")
        group = b - 63
        for shift in range(5, -1, -1):
            bit = (group >> shift) & 1
            if pos < nbits:
                if bit:
                    i, j = pairs[pos]
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            elif bit:
                raise GraphFormatError("nonzero graph6 padding bits")
            pos += 1
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6 (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    group, filled = 0, 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | ((g.adj[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


# ---------------------------------------------------------------------------
# Standard families


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def path(n: int) -> Graph:
    """Path with vertices labeled 0..n-1 along the walk."""
    if n < 1:
        raise ValueError("path requires n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle with vertices labeled 0..n-1 along the walk."""
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edge_list(n, itertools.combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star with hub at vertex n-1 (consistent with the wheel convention)."""
    if n < 1:
        raise ValueError("star requires n >= 1")
    return from_edge_list(n, [(v, n - 1) for v in range(n - 1)])


def wheel(n: int) -> Graph:
    """Cycle on vertices 0..n-2 plus a dominating hub at vertex n-1."""
    if n < 4:
        raise ValueError("wheel requires n >= 4")
    edges = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    edges += [(v, n - 1) for v in range(n - 1)]
    return from_edge_list(n, edges)


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph, parts in the given order with consecutive labels."""
    sizes = list(parts)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be >= 1")
    n = sum(sizes)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    edges = []
    for (a0, a1), (b0, b1) in itertools.combinations(bounds, 2):
        edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return from_edge_list(n, edges)


def cycle_plus_chord(n: int, i: int, j: int) -> Graph:
    """Cycle on n vertices plus the single chord {i, j}."""
    if n < 4:
        raise ValueError("chorded cycle requires n >= 4")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("chord endpoint out of range")
    if i == j or (j - i) % n in (1, n - 1):
        raise ValueError(f"({i}, {j}) is not a chord of the {n}-cycle")
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges.append((i, j))
    return from_edge_list(n, edges)


def _require_binary(b: str) -> None:
    """Reject an empty string or one with a symbol other than '0' and '1'."""
    if not b:
        raise ValueError("binary string must be nonempty")
    if b.strip("01"):  # what strip leaves holds a symbol other than '0' and '1'
        raise ValueError(f"illegal character in binary string {b!r}")


def threshold_from_string(b: str) -> Graph:
    """Threshold graph generated by a binary string.

    Vertex k is the k-th symbol; there is an edge {j, k} with j < k exactly
    when symbol k is '1'.
    """
    _require_binary(b)
    n = len(b)
    if n > MAX_VERTICES:
        raise SizeCapError(f"string length {n} exceeds cap {MAX_VERTICES}")
    adj = [0] * n
    for k, c in enumerate(b):
        if c == "1":
            adj[k] |= (1 << k) - 1
            for j in range(k):
                adj[j] |= 1 << k
    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class BlockPartition:
    """Maximal-run decomposition of a binary string into 0-blocks and 1-blocks."""

    blocks: tuple[tuple[int, int], ...]  # (symbol, length), symbols alternate
    source: str


def block_partition(b: str) -> BlockPartition:
    """Run-length decomposition of a binary string."""
    _require_binary(b)
    blocks = [(int(sym), len(list(run))) for sym, run in itertools.groupby(b)]
    return BlockPartition(tuple(blocks), b)


# ---------------------------------------------------------------------------
# Graph operations


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of g2 are offset by g1.n."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise SizeCapError(f"combined order {n} exceeds cap {MAX_VERTICES}")
    adj = list(g1.adj) + [nb << g1.n for nb in g2.adj]
    return Graph(n, tuple(adj))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    base = disjoint_union(g1, g2)
    lo = (1 << g1.n) - 1
    hi = base.vertex_mask ^ lo
    adj = [nb | (hi if v < g1.n else lo) for v, nb in enumerate(base.adj)]
    return Graph(base.n, tuple(adj))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product with row-major vertex pairing (u, u') -> u * g2.n + u'."""
    n = g1.n * g2.n
    if n > MAX_VERTICES:
        raise SizeCapError(f"product order {n} exceeds cap {MAX_VERTICES}")
    edges = []
    for u in range(g1.n):
        for a, b in g2.edges():
            edges.append((u * g2.n + a, u * g2.n + b))
    for u, v in g1.edges():
        for a in range(g2.n):
            edges.append((u * g2.n + a, v * g2.n + a))
    return from_edge_list(n, edges)


def _connected_components(adj: Sequence[int], n: int) -> list[int]:
    seen = 0
    comps = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grow = 0
            rem = frontier
            while rem:
                b = rem & -rem
                rem ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & ~comp
            comp |= grow
        comps.append(comp)
        seen |= comp
    return comps


def connected_components(g: Graph) -> list[int]:
    """Vertex-set masks of the connected components, ordered by minimum vertex."""
    return _connected_components(g.adj, g.n)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Test isomorphism by permutation search with degree-sequence pruning.

    Cheap invariant rejects (order, size, degree sequence) run at any order;
    the backtracking search itself is guarded at ISO_SEARCH_MAX vertices.
    """
    if g1.n != g2.n:
        return False
    if g1.edge_count() != g2.edge_count():
        return False
    d1, d2 = sorted(g1.degrees()), sorted(g2.degrees())
    if d1 != d2:
        return False
    if g1.adj == g2.adj:
        return True
    if g1.n > ISO_SEARCH_MAX:
        raise SizeCapError(f"isomorphism search capped at {ISO_SEARCH_MAX} vertices")

    n = g1.n
    deg1, deg2 = g1.degrees(), g2.degrees()
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        nbrs = g1.adj[v]
        for u in range(n):
            if used[u] or deg2[u] != deg1[v]:
                continue
            ok = True
            for w in range(v):
                if ((nbrs >> w) & 1) != ((g2.adj[u] >> mapping[w]) & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(v + 1):
                    return True
                used[u] = False
        mapping[v] = -1
        return False

    return extend(0)


def _has_hamiltonian_path(adj: Sequence[int], n: int) -> bool:
    if n <= 1:
        return True
    if len(_connected_components(adj, n)) != 1:
        return False
    full = (1 << n) - 1
    # ends[mask]: vertices that can terminate a path spanning exactly `mask`
    ends = [0] * (full + 1)
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, full + 1):
        ep = ends[mask]
        if not ep:
            continue
        if mask == full:
            return True
        rem = ep
        while rem:
            b = rem & -rem
            rem ^= b
            nxt = adj[b.bit_length() - 1] & ~mask
            while nxt:
                nb = nxt & -nxt
                nxt ^= nb
                ends[mask | nb] |= nb
    return bool(ends[full])


def has_hamiltonian_path(g: Graph) -> bool:
    """Spanning-path existence via the subsets-times-endpoints bitmask DP."""
    if g.n > HAMILTONIAN_MAX:
        raise SizeCapError(f"Hamiltonian-path DP capped at {HAMILTONIAN_MAX} vertices")
    return _has_hamiltonian_path(g.adj, g.n)


# ---------------------------------------------------------------------------
# Exhaustive generation


def edge_pair_order(n: int) -> list[tuple[int, int]]:
    """Fixed pair order used to index labeled graphs by edge-subset counter."""
    return list(itertools.combinations(range(n), 2))


def _edge_mask_adj(pairs: Sequence[tuple[int, int]], n: int, edge_mask: int) -> list[int]:
    """Adjacency of the labeled graph whose edges are the set bits of edge_mask
    over the given pair order (callers pass edge_pair_order(n))."""
    adj = [0] * n
    m = edge_mask
    while m:
        b = m & -m
        m ^= b
        u, v = pairs[b.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph_from_edge_mask(n: int, edge_mask: int) -> Graph:
    """Labeled graph whose edge set is the given subset of edge_pair_order(n)."""
    pairs = edge_pair_order(n)
    if edge_mask >> len(pairs):
        raise ValueError("edge mask out of range")
    return Graph(n, tuple(_edge_mask_adj(pairs, n, edge_mask)))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices exactly once, by edge-subset counter."""
    if n > LABELED_ENUM_MAX:
        raise SizeCapError(f"labeled enumeration capped at {LABELED_ENUM_MAX} vertices")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask)
