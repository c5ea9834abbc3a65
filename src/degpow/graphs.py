"""Small undirected graphs as per-vertex adjacency bitmasks.

Every graph handled here has at most 64 vertices, so a neighborhood fits in
one Python int and the hot predicates (cycle detection, component walks)
reduce to shifts, ANDs and popcounts.  Vertices are 0..order-1; row v holds
bit u exactly when uv is an edge.  SmallGraph instances are immutable and
hash by (order, rows), so they can key dicts and sit in sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add, mul
from typing import Iterable, Iterator, Optional

MAX_ORDER = 64


class CapacityError(Exception):
    """Raised when an input exceeds the 64-vertex bitmask representation."""


@dataclass(frozen=True, slots=True)
class SmallGraph:
    order: int
    rows: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        m = self.rows[v]
        while m:
            b = m & -m
            m ^= b
            yield b.bit_length() - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.order) for u in self.neighbors(v) if u > v]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SmallGraph(order={self.order}, edges={self.edges()})"


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> SmallGraph:
    """Build a SmallGraph from an edge list.

    Raises CapacityError for order > 64 and ValueError for negative order,
    out-of-range endpoints, or self-loops.  Duplicate edges collapse.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if order > MAX_ORDER:
        raise CapacityError(f"order {order} exceeds the {MAX_ORDER}-vertex limit")
    rows = [0] * order
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SmallGraph(order, tuple(rows))


def degree_sequence(g: SmallGraph) -> list[int]:
    return [r.bit_count() for r in g.rows]


def induced_subgraph(g: SmallGraph, vertices: Iterable[int]) -> SmallGraph:
    """Subgraph induced on the given vertices, relabeled 0..k-1 in the order
    given.  Duplicates and out-of-range vertices raise ValueError."""
    order = list(vertices)
    if len(set(order)) != len(order):
        raise ValueError("duplicate vertices in induced subgraph selection")
    pos = {}
    for i, v in enumerate(order):
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range for order {g.order}")
        pos[v] = i
    rows = [0] * len(order)
    for v in order:
        for u in g.neighbors(v):
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
    return SmallGraph(len(order), tuple(rows))


def degree_power_sum(degrees: Iterable[int], p: int) -> int:
    """Sum of d**p over a degree sequence.  Exact (Python ints), p >= 1."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    return sum(d ** p for d in degrees)


# ---------------------------------------------------------------------------
# cycle and path detection


def _has_c5_through_edge(rows, u: int, v: int) -> bool:
    # 5-cycle containing edge uv = path v-a-b-c-u on three further vertices.
    targets = rows[u] & ~((1 << u) | (1 << v))
    if not targets:
        return False
    excl = ~((1 << u) | (1 << v))
    cand = rows[v] & excl
    while cand:
        a_bit = cand & -cand
        cand ^= a_bit
        mid = rows[a_bit.bit_length() - 1] & excl & ~a_bit
        while mid:
            b_bit = mid & -mid
            mid ^= b_bit
            if rows[b_bit.bit_length() - 1] & targets & ~(a_bit | b_bit):
                return True
    return False


def _count_c5(rows) -> int:
    """Number of 5-cycles, by the trace formula of Harary and Manvel (1971):
    10·c5 = tr(A^5) − 5·tr(A^3) − 5·Σ_i (d_i − 2)·(A^3)_ii.

    A^2_ij is the popcount of rows[i] & rows[j]; row i of A^3 sums the A^2
    rows of i's neighbours, and tr(A^5) = Σ_ij A^2_ij·A^3_ij.
    """
    a2 = [[(ri & rj).bit_count() for rj in rows] for ri in rows]
    walks5 = walks3 = weighted = 0
    for i, ri in enumerate(rows):
        a3 = [0] * len(rows)
        m = ri
        while m:
            b = m & -m
            m ^= b
            a3 = list(map(add, a3, a2[b.bit_length() - 1]))
        walks5 += sum(map(mul, a2[i], a3))
        walks3 += a3[i]
        weighted += (a2[i][i] - 2) * a3[i]
    return (walks5 - 5 * walks3 - 5 * weighted) // 10


def contains_cycle(g: SmallGraph, k: int) -> bool:
    """True iff g contains a cycle on exactly k vertices as a subgraph.

    k = 5 counts 5-cycles by the trace formula (the dominant use); other
    lengths fall back to a DFS over simple paths anchored at the cycle's
    minimum-labeled vertex.
    """
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    n = g.order
    if k > n:
        return False
    rows = g.rows
    if k == 5:
        return _count_c5(rows) > 0

    def extend(start: int, last: int, visited: int, length: int) -> bool:
        if length == k:
            return bool((rows[last] >> start) & 1)
        # only vertices above the anchor keep each cycle found once
        m = rows[last] & ~visited
        m &= ~((1 << (start + 1)) - 1)
        while m:
            b = m & -m
            m ^= b
            if extend(start, b.bit_length() - 1, visited | b, length + 1):
                return True
        return False

    return any(extend(s, s, 1 << s, 1) for s in range(n - k + 1))


def contains_path_order(g: SmallGraph, k: int) -> bool:
    """True iff g contains a simple path on k vertices."""
    if k < 1:
        raise ValueError(f"path order must be >= 1, got {k}")
    n = g.order
    if k > n:
        return False
    if k == 1:
        return True
    rows = g.rows

    def extend(last: int, visited: int, length: int) -> bool:
        if length == k:
            return True
        m = rows[last] & ~visited
        while m:
            b = m & -m
            m ^= b
            if extend(b.bit_length() - 1, visited | b, length + 1):
                return True
        return False

    return any(extend(s, 1 << s, 1) for s in range(n))


# ---------------------------------------------------------------------------
# canonical form


def _refine_colors(rows, n: int) -> list[int]:
    # iterated neighbor-multiset refinement; color ids are ranks of sorted
    # signature tuples, so they are isomorphism-invariant
    colors = [rows[v].bit_count() for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = rows[v]
            while m:
                b = m & -m
                m ^= b
                nb.append(colors[b.bit_length() - 1])
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [ranks[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def _smaller_twins(rows, n: int) -> list[int]:
    """Entry v holds the twins u < v of v: N(u) - {v} = N(v) - {u}.

    Twinship is an equivalence: a vertex cannot have both an adjacent and a
    non-adjacent twin.  So the largest member of a class sees all the rest.

    Non-adjacent twins share their open row N(v), adjacent ones their closed
    row N(v) + {v}, so one pass groups the vertices by both rows in one
    dict.  An open row never equals a closed one: rows[u] = rows[v] | 1 << v
    puts v in N(u), so u in N(v) and in N(u).
    """
    smaller = []
    seen: dict[int, int] = {}  # row -> the vertices so far with it as open or closed row
    bit = 1
    for row in rows[:n]:
        closed = row | bit
        with_open, with_closed = seen.get(row, 0), seen.get(closed, 0)
        smaller.append(with_open | with_closed)
        seen[row] = with_open | bit
        seen[closed] = with_closed | bit
        bit <<= 1
    return smaller


def _canonical_columns(rows, n: int) -> tuple[int, ...]:
    """The least upper-triangle adjacency bitstring over vertex orders, as
    columns: bit i of columns[t] says whether the vertices in slots i < t
    and t are adjacent.  Equal columns mean isomorphic graphs.

    Candidates at each position are restricted to the refinement cell that
    owns it (cells in ascending color), which is sound because the cell
    sequence is isomorphism-invariant.  Branch and bound on the per-position
    column bits keeps the search far below the factorial worst case: at
    each position only the candidates with the smallest column are placed,
    and only when that column is no worse than the best found there.

    u and v are twins when N(u) - {v} = N(v) - {u}.  Every permutation of a
    twin class is an automorphism, so reordering a class leaves the
    bitstring unchanged, and a vertex is placed only after all of its
    smaller twins.  Without this, K_{a,b}, the empty graph and the book
    graph K2 + empty(n-2) would walk every order of their large cells.
    """
    if n == 0:
        return ()
    colors = _refine_colors(rows, n)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    slot_cells = [cell for c in sorted(by_color) for cell in [by_color[c]] * len(by_color[c])]
    best = [1 << (n + 1)] * n
    _place_least(rows, slot_cells, _smaller_twins(rows, n), best, [], 0)
    return tuple(best)


def _place_least(rows, slot_cells, smaller_twins, best, placed, placed_mask) -> None:
    """One branch-and-bound step of _canonical_columns: fill the slot
    after `placed` from its cell.  best[t] is the smallest column seen at
    slot t.  A module-level function, since a self-calling closure would
    leave one reference cycle per labeling."""
    t = len(placed)
    n = len(slot_cells)
    if t == n:
        return
    cols = {}
    for v in slot_cells[t]:
        if placed_mask >> v & 1 or smaller_twins[v] & ~placed_mask:
            continue
        row, col = rows[v], 0
        for i, u in enumerate(placed):
            if (row >> u) & 1:
                col |= 1 << i
        cols[v] = col
    low = min(cols.values())
    if low > best[t]:
        return
    if low < best[t]:
        best[t:] = [low] + [1 << (n + 1)] * (n - t - 1)
    for v, col in cols.items():
        if col == low:
            placed.append(v)
            _place_least(rows, slot_cells, smaller_twins, best, placed, placed_mask | 1 << v)
            placed.pop()


def canonical_relabel(g: SmallGraph) -> SmallGraph:
    """Isomorphism-canonical relabeling: equal outputs iff isomorphic inputs."""
    rows = [0] * g.order
    for t, column in enumerate(_canonical_columns(g.rows, g.order)):
        rows[t] |= column
        for i in range(t):
            rows[i] |= (column >> i & 1) << t
    return SmallGraph(g.order, tuple(rows))


def canonical_form(g: SmallGraph) -> bytes:
    """Canonical certificate: the graph6 encoding of the canonical relabeling.

    Two graphs get equal certificates exactly when they are isomorphic, and
    the certificate doubles as a printable representative.
    """
    return to_graph6(canonical_relabel(g)).encode("ascii")


# ---------------------------------------------------------------------------
# complete bipartite recognition


def is_complete_bipartite(g: SmallGraph) -> Optional[tuple[int, int]]:
    """Class sizes (a, b) with a <= b if g is K_{a,b}, else None.

    Both classes must be nonempty, so the empty graph, K1, and anything with
    an isolated vertex are rejected, as is any disconnected graph.

    Row 0 is the far class, the one vertex 0 is not in, and g is K_{a,b}
    exactly when every row equals the class its vertex is not in.
    """
    n = g.order
    rows = g.rows
    if n < 2 or not rows[0]:
        return None
    far = rows[0]
    near = ((1 << n) - 1) ^ far
    if any(row != (near if far >> v & 1 else far) for v, row in enumerate(rows)):
        return None
    a, b = near.bit_count(), far.bit_count()
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# graph6 encoding (column-major upper triangle, 6 bits per byte, offset 63)


def to_graph6(g: SmallGraph) -> str:
    n = g.order
    if n <= 62:
        head = chr(n + 63)
    else:
        # 18-bit size form covers everything up to the 64-vertex cap
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    bits = []
    for v in range(1, n):
        col = g.rows[v]
        for u in range(v):
            bits.append((col >> u) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> SmallGraph:
    """Decode one graph6 line.  Tolerates the optional >>graph6<< header."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in s):
        raise ValueError("graph6 characters must be in the range chr(63)..chr(126)")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 sizes beyond 18 bits are not supported")
        if len(s) < 4:
            raise ValueError("truncated graph6 size field")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the {MAX_ORDER}-vertex limit")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = []
    for c in body:
        val = ord(c) - 63
        bits.extend(((val >> shift) & 1) for shift in range(5, -1, -1))
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    if any(bits[i:]):
        raise ValueError("nonzero padding bits in graph6 body")
    return SmallGraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# naive oracles, exported for cross-checks


def naive_contains_cycle(g: SmallGraph, k: int) -> bool:
    """Reference k-cycle detector by brute permutation of k-subsets.

    Deliberately structure-free: used to validate contains_cycle, never in
    the hot paths.
    """
    from itertools import permutations

    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    rows = g.rows
    for comb in combinations(range(g.order), k):
        anchor = comb[0]
        for perm in permutations(comb[1:]):
            prev = anchor
            for x in perm:
                if not (rows[prev] >> x) & 1:
                    break
                prev = x
            else:
                if (rows[prev] >> anchor) & 1:
                    return True
    return False
