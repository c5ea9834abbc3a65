"""Exhaustive search over C5-free graphs and structural validators.

The reference, enumerate_c5_free, visits every labeled C5-free graph
exactly once: it decides the edges (0,1), (0,2), (1,2), (0,3), ... one at a
time and cuts the include branch the moment the new edge would close a
5-cycle; containment is monotone, so the cut is exact.  Since that order
lists (0,j), (1,j), ..., (j-1,j) together, it picks vertex j's
neighbourhood S in {0..j-1} bit by bit, and joining j to S closes a 5-cycle
exactly when two members of S end a path a-x-y-b on four distinct vertices
of G[0..j-1].  The search and the sweeps therefore add one vertex at a
time, by one child step (_children), and each graph on j vertices carries
its pick mask, one integer of 2**j bits whose bit S is set exactly when
vertex j may take S.  A child's mask follows from its parent's by a few
ANDs with cached tables (_mask_after), the twin rule and the degree part
of the deletion rule are ANDs on the mask too (_canonical_picks compares
neighbour-degree sums only at degree ties, pick by pick), and its set
bits, the picks, are listed in increasing order of S.  Labeled counts grow fast (9,369,687 at n = 8),
which is why the leaf work is all bitmask arithmetic on raw adjacency
rows; the SmallGraph API appears only at the edges of the module.

The extremal search and the validator sweeps split the walk at the first
k = n - 2 vertices (k = 0 below n = 3): the C5-free graphs on vertices
0..k-1, as tuples of adjacency rows, are the prefixes, and _prefixes lists
them in the reference's order.  Every later edge touches a vertex >= k,
so a permutation of {0..k-1} maps the completions of one prefix
one-to-one onto the completions of its image, keeping e_p, C5-freeness,
the isomorphism class and every property the sweeps test.
_prefix_orbits grows the orbits one vertex at a time and keeps one graph
per class, making only the children whose new vertex has the largest
(degree, neighbour-degree sum) (canonical deletion, McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998); that rule is one filter on
the twin picks, _canonical_picks.  A child is keyed by a cheap invariant
first, its sorted degrees and its number of picks, and by its parent too
when its new vertex alone has the largest pair, and by its canonical
columns only when another child of its level shares that key, in one
pass that stores only the classes: the first child with a key is labeled
when the second one comes.  At n = 9 that labels 172 of the 470 children
that make the 251 orbits of the 316,453 prefixes on 7 vertices, without
listing the prefixes.  Which child represents a class depends on the
order of the picks; nothing else does.  Both consumers then loop over
one class walk, the generator _walk_classes: it joins vertex n - 2 to
each representative by the step that grows the classes, _children,
through twin picks only, all of them (_twin_picks) for a sweep and those
of _canonical_picks for the search, and yields each graph on n - 1
vertices with its pick mask, weighted by the orbit size times the picks
it stands for, so `visited`, `graphs` and `pairs_checked` stay exact
labeled counts.  The search starts every exponent's incumbent at 0, so it
leans on no construction it could be checked against, counts the leaves
of the last vertex by popcount, and lists only the picks large enough to
reach some exponent's best e_p so far; a sweep lists every pick.  One
loop, _check_picks, joins the last vertex in place to each listed pick:
the search reads the leaf's e_p off its degrees, and a sweep checks the
leaf and keeps each violation it shows with the labeled violations it
stands for, weighted like the graphs.  Everything runs in one process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .graphs import (
    CapacityError,
    SmallGraph,
    _canonical_columns,
    _check_p,
    _has_c5_through_edge,
    _smaller_twins,
    canonical_relabel,
    contains_cycle,
    contains_path_order,
    induced_subgraph,
    is_complete_bipartite,
    to_graph6,
)

# search_extremal takes about a second at n = 11; the labeled enumerator takes
# 13 min at n = 9, and the validator sweeps check every leaf, so they keep 9
MAX_SEARCH_ORDER = 11
MAX_LABELED_ORDER = 9

# one predicate, two readings: on an existing edge it finds a 5-cycle through
# it; on a missing edge it answers whether adding the edge would close one
_creates_c5 = _has_c5_through_edge


def _run_tree(n: int, leaf) -> None:
    """The edge-decision tree: leaf(rows) at every labeled C5-free graph."""
    edges = [(i, j) for j in range(1, n) for i in range(j)]
    m = len(edges)
    rows = [0] * n

    def rec(i: int) -> None:
        if i == m:
            leaf(rows)
            return
        u, v = edges[i]
        if not _creates_c5(rows, u, v):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            rec(i + 1)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        rec(i + 1)

    rec(0)


def _check_search_order(n: int, force: bool, cap: int = MAX_LABELED_ORDER) -> None:
    """The one rule for an order: an integer >= 0, and at most cap unless
    forced."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be an integer >= 0, got {n}")
    if n > cap and not force:
        raise CapacityError(
            f"exhaustive search at n={n} exceeds the default cap of {cap}; "
            "override with force=True (CLI: --force)"
        )


def enumerate_c5_free(n: int, visitor: Optional[Callable] = None, *, force: bool = False) -> int:
    """Visit every labeled C5-free graph on n vertices exactly once.

    visitor, when given, receives the raw adjacency row list; it must treat
    the list as read-only and copy it before storing.  Returns the number of
    graphs visited.
    """
    _check_search_order(n, force)
    count = 0
    def leaf(rows):
        nonlocal count
        count += 1
        if visitor is not None:
            visitor(rows)
    _run_tree(n, leaf)
    return count


def collect_c5_free(n: int, *, force: bool = False) -> list[SmallGraph]:
    """Materialize the full C5-free list as SmallGraphs; small n only."""
    out: list[SmallGraph] = []
    enumerate_c5_free(n, lambda rows: out.append(SmallGraph(n, tuple(rows))), force=force)
    return out


# ---------------------------------------------------------------------------
# extremal search


@dataclass(frozen=True, slots=True)
class MaximizerRecord:
    graph: SmallGraph  # canonical relabeling
    canonical: bytes
    biclique: Optional[tuple[int, int]]
    max_degree: int
    edge_count: int


@dataclass(frozen=True, slots=True)
class SearchResult:
    n: int
    p: int
    value: int
    visited: int
    maximizers: tuple[MaximizerRecord, ...]


@cache
def _bit_lists(j: int) -> tuple[tuple[int, ...], ...]:
    """Entry s lists the set bits of s in increasing order, for every subset s
    of {0..j-1}."""
    if j == 0:
        return ((),)
    shorter = _bit_lists(j - 1)
    return shorter + tuple(members + (j - 1,) for members in shorter)


@cache
def _disjoint(m: int) -> tuple[int, ...]:
    """Entry x, for each subset x of {0..m-1}, is the set of the subsets T
    of {0..m-1} that miss x, as an integer of 2**m bits: bit T is set when
    T & x == 0.  Entry 1 << a holds the sets that lack a, and entry 0 every
    set."""
    size = 1 << m
    masks = [(1 << size) - 1]
    for a in range(m):
        # the sets without a come in runs of 2**a, one run per 2**(a + 1)
        lacks = (1 << (1 << a)) - 1
        width = 2 << a
        while width < size:
            lacks |= lacks << width
            width <<= 1
        masks += [mask & lacks for mask in masks]
    return tuple(masks)


@cache
def _at_least(m: int) -> tuple[int, ...]:
    """Entry t, t = 0..m+1, is the set of the subsets of {0..m-1} with at
    least t members, as an integer of 2**m bits (see _disjoint)."""
    if m == 0:
        return (1, 0)
    shorter = _at_least(m - 1)
    # the sets without m - 1 need t members below it, those with m - 1 t - 1
    low = shorter + (0,)
    high = (shorter[0],) + shorter
    half = 1 << (m - 1)
    return tuple(a | b << half for a, b in zip(low, high))


def _members(mask: int) -> list[int]:
    """The set bits of mask in increasing order."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _mask_after(rows, j: int, mask: int, s: int) -> int:
    """The pick mask of G[0..j], where vertex j is joined to S = s, given
    mask, that of G = G[0..j-1] held in rows (bits below j only).

    The pick mask of a graph on j vertices has 2**j bits: bit T is set when
    a new vertex joined to T closes no 5-cycle, that is, when no two
    members of T end a path a-x-y-b on four distinct vertices of the graph.
    Joining j to S adds only the paths through j.  With j inside the path,
    a-j-y-b, both a and y are in S, so each new pair has an end a in S, and
    its other end is a neighbour of another member of S: one in `twice`, or
    in `once` but not next to a.  With j at an end, j-y-z-b, the other end
    b is two steps from a member y of S, other than y.  So the sets that
    lack j keep bit T unless T holds some a in S and one of a's partners,
    and the sets that take j are those that also miss the far ends.
    """
    bit_lists = _bit_lists(j)
    disjoint = _disjoint(j)
    members = bit_lists[s]
    once = twice = ends = 0
    for y in members:
        near = rows[y]
        twice |= once & near
        once |= near
        two_steps = 0
        for z in bit_lists[near]:
            two_steps |= rows[z]
        ends |= two_steps & ~(1 << y)
    for a in members:
        a_bit = 1 << a
        mask &= disjoint[a_bit] | disjoint[(twice | once & ~rows[a]) & ~a_bit]
    return mask | (mask & disjoint[ends]) << (1 << j)


def _prefixes(k: int) -> list[tuple[int, ...]]:
    """All C5-free graphs on vertices 0..k-1 as adjacency-row tuples, in the
    order of the labeled reference, _run_tree."""
    found: list[tuple[int, ...]] = []
    _run_tree(k, lambda rows: found.append(tuple(rows)))
    return found


@cache
def _binomials(m: int) -> tuple[int, ...]:
    """Entry i is C(m, i), for i = 0..m."""
    return tuple(math.comb(m, i) for i in range(m + 1))


def _twin_weights(smaller: list[int], picks: Iterable[int]) -> list[tuple[int, int]]:
    """(S, weight) for each pick S, where weight, the product of
    C(|T|, |S & T|) over the twin classes T given by smaller (see
    _smaller_twins), counts the picks that S stands for."""
    # keyed by the smallest member; the largest member's entry, the whole
    # class, comes last and wins
    twin_classes = {b & -b: b | 1 << v for v, b in enumerate(smaller) if b}.values()
    if not twin_classes:
        return [(s, 1) for s in picks]
    rows = [(t, _binomials(t.bit_count())) for t in twin_classes]
    weighed = []
    for s in picks:
        weight = 1
        for t, row in rows:
            weight *= row[(s & t).bit_count()]
        weighed.append((s, weight))
    return weighed


def _twin_mask(rows, j: int, mask: int) -> tuple[list[int], int]:
    """(smaller, mask'): smaller the _smaller_twins of G[0..j-1], and mask'
    the bits of mask, a pick mask of G[0..j-1] (see _mask_after), whose S
    meets each twin class of G[0..j-1] in its smallest members.

    Permuting a twin class is an automorphism of G[0..j-1].  It maps the
    picks onto each other, and every graph that extends G[0..j-1] + S onto
    an isomorphic one that extends the image of S, with the same e_p.
    """
    smaller = _smaller_twins(rows, j)
    disjoint = _disjoint(j)
    for v, twins in enumerate(smaller):
        if twins:  # S takes v only with v's largest smaller twin, which holds the rest
            mask &= disjoint[1 << v] | disjoint[0] ^ disjoint[1 << twins.bit_length() - 1]
    return smaller, mask


def _twin_picks(rows, j: int, mask: int) -> list[tuple[int, int, int]]:
    """(S, weight, mu) for the picks S of vertex j, the set bits of mask,
    the pick mask of G[0..j-1], that meet each twin class of G[0..j-1] in
    its smallest members (_twin_mask), in increasing order of S; weight
    counts the picks that S stands for (_twin_weights).  mu = j + 1: no
    rule picks vertex j, so any vertex of G[0..j] may come last (see
    _children)."""
    smaller, mask = _twin_mask(rows, j, mask)
    return [(s, weight, j + 1) for s, weight in _twin_weights(smaller, _members(mask))]


def _canonical_picks(rows, j: int, mask: int) -> list[tuple[int, int, int]]:
    """The (S, weight, mu) of _twin_picks after which vertex j has the
    largest (degree, neighbour-degree sum) in G[0..j], the sum s(v) of the
    degrees of v's neighbours, in the same order; mu is the number of
    vertices of G[0..j] that share that largest pair.

    The degree part is one AND on the mask: vertex j has the maximum
    degree in G[0..j] when |S| >= top + 1, top the top degree of
    G[0..j-1], or when |S| >= top and S misses every vertex of degree top,
    since S raises the degrees of its members.  The vertices that then tie
    j's degree are the members of S of degree |S| - 1 and the other
    vertices of degree |S|.
    s is needed only for those ties, and is read off G[0..j-1] before the
    child is built: a vertex v below j gains |N(v) & S| from the members
    of S and, in S, |S| from j, and j's own sum is that of deg + 1 over S.
    The pair is kept by every automorphism of G[0..j-1], so the picks that
    one twin pick stands for, its images, pass or fail together, and only
    those that pass are weighed.
    """
    degrees = [row.bit_count() for row in rows]
    levels = [0] * (j + 2)  # levels[d]: the vertices of degree d
    for v, d in enumerate(degrees):
        levels[d] |= 1 << v
    top = max(degrees, default=0)
    at_least = _at_least(j)
    tops = at_least[top + 1] | at_least[top] & _disjoint(j)[levels[top]]
    smaller, mask = _twin_mask(rows, j, mask & tops)
    bit_lists = _bit_lists(j)
    sums = None  # s(v) in G[0..j-1], listed on first need
    kept, mus = [], []
    for s in _members(mask):
        members = bit_lists[s]
        size = len(members)
        # s & levels[-1] is 0 for the one pick s = 0 with |S| - 1 < 0
        ties = s & levels[size - 1] | levels[size] & ~s
        if not ties:
            kept.append(s)
            mus.append(1)
            continue
        if sums is None:
            sums = [sum(map(degrees.__getitem__, bit_lists[row])) for row in rows]
        own = sum(map(degrees.__getitem__, members)) + size
        mu = 1
        for v in bit_lists[ties]:
            other = sums[v] + (rows[v] & s).bit_count() + (size if s >> v & 1 else 0)
            if other > own:
                break
            mu += other == own
        else:
            kept.append(s)
            mus.append(mu)
    return [(s, weight, mu) for (s, weight), mu in zip(_twin_weights(smaller, kept), mus)]


def _exact_share(total: int, parts: int) -> int:
    """total / parts, which the orbit-counting arguments make exact."""
    share, rest = divmod(total, parts)
    if rest:
        raise ArithmeticError(f"{total} / {parts} is not exact")
    return share


def _children(orbits, j: int, picks):
    """(parent, child, count, mask, mu) for each (rep, size, mask) in
    orbits, a representative on vertices 0..j-1 with its pick mask, at
    index parent, and each (S, weight, mu) in picks(rep, j, mask): child is
    a new row list, rep with vertex j joined to S, count = size * weight
    the labeled graphs it stands for, mask the child's own pick mask
    (_mask_after), and mu the number of the child's vertices that the rule
    of picks lets come last.  By the argument of _prefix_orbits, the counts
    of the children in a class C add up to |C| * mu / (j + 1)."""
    members = _bit_lists(j)
    j_bit = 1 << j
    for parent, (rep, size, mask) in enumerate(orbits):
        for s, weight, mu in picks(rep, j, mask):
            child = [*rep, s]
            for i in members[s]:
                child[i] |= j_bit
            yield parent, child, size * weight, _mask_after(rep, j, mask, s), mu


def _prefix_orbits(
    k: int, stats: Optional[SearchStats] = None
) -> list[tuple[tuple[int, ...], int, int]]:
    """(representative, orbit size, pick mask) for each S_k orbit of the
    C5-free prefixes on vertices 0..k-1, representatives as row tuples.  A
    representative is some member of its orbit whose last vertex has the
    largest (degree, neighbour-degree sum), not the orbit's first prefix in
    _prefixes order.

    The orbits are grown one vertex at a time, by canonical deletion of a
    vertex with the largest pair (McKay 1998).  Level j makes the _children
    at vertex j-1 of each representative D on j-1 vertices through
    _canonical_picks, those after which the new vertex j-1 has the largest
    pair; the first such child of a class C represents it.  Every class is
    reached: relabel a member of C so that j-1 has the largest pair;
    deleting j-1 leaves a graph in some orbit D, and moving that graph onto
    D's representative while fixing j-1 gives a pick of D whose child lies
    in C with j-1 at the largest pair.

    Children are keyed invariant first: their sorted degrees and the number
    of their picks, the set bits of their mask.  Isomorphic children share
    both, so a child whose invariant no other child of its level has is a
    class of its own; only the children that share one are told apart by
    _canonical_columns.  A child whose new vertex alone has the largest
    pair (mu' = 1) is keyed by its parent too: an isomorphism between two
    such children maps one new vertex onto the other, so it maps parent
    onto parent, and two representatives are never isomorphic.  Such a
    child is labeled only to tell it apart from a sibling.  A level is one
    pass that stores only its classes: the first child with a key opens a
    class, labeled once a second child shares the key; each later one is
    labeled and joins the class with its columns, or opens one.  Classes
    keep the order of their first children.

    Sizes need no automorphism group.  A permutation of D's vertices that
    fixes j-1 maps D's picks onto those of any relabeling of D, class by
    class, so sigma, the sum over D of |orbit of D| * (weights of D's
    picks that land in C), counts the labeled members of C whose vertex
    j-1 has the largest pair.  Transposing j-1 with another vertex shows
    that each vertex has that pair in equally many members, so sigma is
    |C| * mu' / j, with mu' the number of vertices of C that have the
    largest pair, and |C| = j * sigma / mu', an exact division.  The
    argument holds for any vertex invariant that isomorphisms keep, the
    degree alone among them.
    """
    orbits = [((), 1, 1)]
    for j in range(1, k + 1):
        classes: dict[tuple, list] = {}  # -> [representative, sigma, pick mask, columns, mu']
        made = keyed = 0
        for made, (parent, child, count, mask, mu) in enumerate(
            _children(orbits, j - 1, _canonical_picks), 1
        ):
            key = (
                parent if mu == 1 else None,
                tuple(sorted(row.bit_count() for row in child)),
                mask.bit_count(),
            )
            entry = classes.setdefault(key, [tuple(child), 0, mask, None, mu])
            if entry[1]:  # an earlier child has the key: label its class once, and child
                if entry[3] is None:
                    entry[3] = _canonical_columns(entry[0], j)
                    keyed += 1
                columns = _canonical_columns(child, j)
                keyed += 1
                if columns != entry[3]:
                    key += (columns,)
                    entry = classes.setdefault(key, [tuple(child), 0, mask, columns, mu])
            entry[1] += count
        if stats is not None:
            stats.prefix_children += made
            stats.canonical_keyings += keyed
        orbits = [
            (child, _exact_share(j * sigma, mu), mask)
            for child, sigma, mask, _, mu in classes.values()
        ]
    return orbits


def _walk_classes(n: int, picks, stats: Optional[SearchStats] = None):
    """Yield (rows, deg, mask, weight, mu) once for each graph G on the
    first n - 1 vertices that the classes of _prefix_orbits(k),
    k = max(n - 2, 0), complete: the _children at vertex n - 2 of each
    representative through picks, _twin_picks for the sweeps and
    _canonical_picks for the search.  Below n = 2 there is no vertex n - 2,
    and the one representative is G, with mu = 1.

    rows and deg are new lists that hold G padded to n vertices, mask is
    G's pick mask, whose set bits are the leaves below G, and weight, the
    orbit size times the twin weight of S, counts the labeled graphs on
    n - 1 vertices that G stands for: each of them is a yielded G
    relabeled on {0..k-1} and within the twin classes of its
    representative.  mu is the number of G's vertices that the rule of
    picks lets come last: n - 1 for the twin picks, which have no rule.
    stats gets the phase times once the walk ends.
    """
    start = time.perf_counter()
    k = max(n - 2, 0)
    orbits = _prefix_orbits(k, stats)
    grouped = time.perf_counter()
    if n < 2:
        for _, size, mask in orbits:
            yield [0] * n, [0] * n, mask, size, 1
    else:
        for _, rows, weight, mask, mu in _children(orbits, k, picks):
            rows.append(0)  # vertex n - 1, not joined yet
            yield rows, [row.bit_count() for row in rows], mask, weight, mu
    if stats is not None:
        stats.walk_s += time.perf_counter() - grouped
        stats.orbit_grouping_s += grouped - start
        stats.labeled_prefixes += sum(size for _, size, _ in orbits)
        stats.orbit_representatives += len(orbits)


def _score_picks(tables, best, ties, rows, deg, mask) -> tuple[int, bool]:
    """Score the leaves below a graph G on n - 1 vertices from the search's
    class walk, held in rows and deg padded to n vertices, with pick mask
    mask.  Returns (leaves, counted), counted when no leaf was listed.
    tables holds (p, [d**p for d = 0..n]) per exponent; best[p] and
    ties[p], shared by all visits, hold the highest e_p so far and the
    leaves that reach it.

    Each set bit S of mask is one leaf, the last vertex v = n-1 joined to
    S, and its e_p is that of G, plus |S|^p, plus the gain (d+1)^p - d^p
    of each member of S of degree d in G.  So a leaf with t members scores
    at most e_p(G) + t^p + the t largest gains, which grows with t, and
    only the leaves with at least the least t whose bound reaches an
    exponent's best so far are listed; a tie is still scored.  An exponent
    that even the join to every vertex of G cannot lift to its best skips
    the visit, and when no leaf is listed the leaves are only counted.  The
    listed leaves are joined in place and scored off their degrees by the
    sweeps' leaf loop, _check_picks.
    """
    n = len(rows)
    live, listed = tables, mask  # n = 0: no bound; the one leaf is the empty graph
    if n:
        last = n - 1
        degrees = deg[:last]
        raised = [d + 1 for d in degrees]
        live, least = [], n
        for p, table in tables:
            goal = best[p]
            if sum(map(table.__getitem__, raised)) + table[last] < goal:
                continue
            base = sum(map(table.__getitem__, degrees))
            gains = sorted([table[d + 1] - table[d] for d in degrees], reverse=True)
            t = gained = 0
            while base + table[t] + gained < goal:
                gained += gains[t]
                t += 1
            least = min(least, t)
            live.append((p, table))
        listed &= _at_least(last)[least]
    if not listed:
        return mask.bit_count(), True

    def score(leaf, leaf_deg, *_) -> int:
        for p, table in live:
            value = sum(map(table.__getitem__, leaf_deg))
            if value > best[p]:
                best[p] = value
                ties[p] = [tuple(leaf)]
            elif value == best[p]:
                ties[p].append(tuple(leaf))
        return 0

    _check_picks(score, n, rows, deg, listed, [])
    return mask.bit_count(), False


@dataclass(slots=True)
class SearchStats:
    """What search_extremal did, summed over the calls it is handed to.

    Kept apart from SearchResult so that payloads stay byte-reproducible;
    the CLI prints it on stderr under --stats.
    """

    labeled_prefixes: int = 0
    orbit_representatives: int = 0
    # children whose new vertex has the largest (degree, neighbour-degree
    # sum), keyed by invariant, and by parent when no other vertex has it
    prefix_children: int = 0
    canonical_keyings: int = 0  # of those, the ones that shared a key and needed canonical columns
    leaves_walked: int = 0
    # graphs on n - 1 vertices whose last vertex has the largest pair
    visits_scored: int = 0
    visits_counted: int = 0  # of those, the ones whose leaves were counted, not listed
    labeled_graphs: int = 0
    ties_relabeled: int = 0
    classes: int = 0
    orbit_grouping_s: float = 0.0
    walk_s: float = 0.0
    merge_dedup_s: float = 0.0


def search_extremal(
    n: int,
    ps: Sequence[int],
    *,
    force: bool = False,
    stats: Optional[SearchStats] = None,
) -> dict[int, SearchResult]:
    """Exact max of e_p over labeled C5-free graphs, for every p in ps at once.

    Returns per-p SearchResults carrying the value, the labeled visit count,
    and the deduplicated isomorphism classes of maximizers (canonical
    relabelings, sorted by certificate).  Only one prefix per S_k orbit is
    walked (see the module docstring); visited is the weighted sum of the
    leaves below the visits of _walk_classes.

    stats, when given, accumulates counters and phase times.
    """
    _check_search_order(n, force, MAX_SEARCH_ORDER)
    ps = list(dict.fromkeys(ps))
    if not ps:
        raise ValueError("need at least one exponent p")
    for p in ps:
        _check_p(p)

    tables = [(p, [d ** p for d in range(n + 1)]) for p in ps]
    best = dict.fromkeys(ps, 0)
    ties: dict[int, list[tuple[int, ...]]] = {p: [] for p in ps}
    # Every class C on n - 1 vertices is visited, with vertex n - 2 at the
    # largest (degree, neighbour-degree sum), so every leaf class is
    # reached: a leaf less its last vertex lies in some C.  By the argument
    # of _prefix_orbits, the weights of C's visits add up to
    # |C| * mu' / (n - 1), with mu' the number of vertices of C with the
    # largest pair, and every member of C has as many picks as a visit.  So
    # `visited` is the sum over mu' of (n - 1) / mu' times the weighted
    # leaves of the visits with that mu', an exact division.  Below n = 2
    # the one visit stands for itself.
    weighted: dict[int, int] = {}  # mu' -> weighted leaves
    leaves_walked = visits_scored = visits_counted = 0
    for rows, deg, mask, weight, mu in _walk_classes(n, _canonical_picks, stats):
        leaves, counted = _score_picks(tables, best, ties, rows, deg, mask)
        weighted[mu] = weighted.get(mu, 0) + weight * leaves
        leaves_walked += leaves
        visits_scored += 1
        visits_counted += counted
    walked = time.perf_counter()
    scale = max(n - 1, 1)
    visited = sum(_exact_share(scale * leaves, mu) for mu, leaves in weighted.items())

    results: dict[int, SearchResult] = {}
    relabeled = 0
    for p in ps:
        records: dict[bytes, MaximizerRecord] = {}
        for rows in ties[p]:
            g = SmallGraph(n, rows)
            canon_graph = canonical_relabel(g)
            relabeled += 1
            key = to_graph6(canon_graph).encode("ascii")
            if key not in records:
                records[key] = MaximizerRecord(
                    graph=canon_graph,
                    canonical=key,
                    biclique=is_complete_bipartite(canon_graph),
                    max_degree=max((r.bit_count() for r in canon_graph.rows), default=0),
                    edge_count=canon_graph.edge_count(),
                )
        results[p] = SearchResult(
            n=n,
            p=p,
            value=best[p],
            visited=visited,
            maximizers=tuple(records[cert] for cert in sorted(records)),
        )
    if stats is not None:
        stats.labeled_graphs += visited
        stats.leaves_walked += leaves_walked
        stats.visits_scored += visits_scored
        stats.visits_counted += visits_counted
        stats.ties_relabeled += relabeled
        stats.classes += sum(len(r.maximizers) for r in results.values())
        stats.merge_dedup_s += time.perf_counter() - walked
    return results


def ex_p(n: int, p: int, *, force: bool = False) -> SearchResult:
    """ex_p(n, C5): the maximum degree power sum over C5-free graphs on n."""
    return search_extremal(n, [p], force=force)[p]


def max_degree_ratio(result: SearchResult) -> list[Fraction]:
    """Delta/n for each maximizer class, exact.

    Raises ValueError at n = 0, where Delta/n is undefined.
    """
    if not result.n:
        raise ValueError("Delta/n is undefined at n = 0")
    return [Fraction(rec.max_degree, result.n) for rec in result.maximizers]


def classify_maximizers(result: SearchResult) -> dict:
    """JSON-ready classification of a search result's maximizer classes."""
    entries = []
    non_biclique = 0
    for rec in result.maximizers:
        if rec.biclique is None:
            non_biclique += 1
        entries.append(
            {
                "graph6": rec.canonical.decode("ascii"),
                "biclique": list(rec.biclique) if rec.biclique else None,
                "max_degree": rec.max_degree,
                "edge_count": rec.edge_count,
                # Delta/n, undefined at n = 0 (see max_degree_ratio)
                "max_degree_ratio": f"{rec.max_degree}/{result.n}" if result.n else None,
            }
        )
    if not entries:
        note = "no maximizers recorded"
    elif non_biclique == 0:
        note = "all maximizer classes are complete bipartite"
    else:
        note = (
            f"{non_biclique} of {len(entries)} maximizer classes are not complete bipartite "
            "(expected at small orders)"
        )
    return {
        "n": result.n,
        "p": result.p,
        "ex_p": str(result.value),
        "visited": result.visited,
        "maximizer_classes": entries,
        "all_biclique": non_biclique == 0 and bool(entries),
        "note": note,
    }


def classification_report(
    n_values: Iterable[int],
    p_values: Iterable[int],
    *,
    force: bool = False,
    stats: Optional[SearchStats] = None,
) -> list[dict]:
    """Maximizer classification table over a grid of (n, p), one row per
    distinct exponent, in first-seen order.  Every order is checked before
    the first search runs."""
    report = []
    n_list = list(n_values)
    p_list = list(dict.fromkeys(p_values))
    for n in n_list:
        _check_search_order(n, force, MAX_SEARCH_ORDER)
    for n in n_list:
        per_p = search_extremal(n, p_list, force=force, stats=stats)
        for p in p_list:
            report.append(classify_maximizers(per_p[p]))
    return report


# ---------------------------------------------------------------------------
# neighborhood structure validators


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    hub: int
    valid: bool
    isolated: int        # K1 components of G[N(u)]: pendant attachments
    edge_pairs: int      # K2 components: triangles through the hub
    other_orders: tuple[int, ...]
    component_masks: tuple[int, ...]


def _components_of(rows, mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= rows[b.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _is_star(rows, comp: int, size: int) -> bool:
    # among connected graphs on >= 4 vertices, exactly the stars avoid a
    # 4-vertex path; 2e == 2(size-1) and max degree size-1 pins them down
    twice_edges = 0
    dmax = 0
    m = comp
    while m:
        b = m & -m
        m ^= b
        d = (rows[b.bit_length() - 1] & comp).bit_count()
        twice_edges += d
        if d > dmax:
            dmax = d
    return twice_edges == 2 * (size - 1) and dmax == size - 1


def neighborhood_decomposition(g: SmallGraph, u: int) -> DecompositionReport:
    """Decompose G[N(u)] into components and test the no-P4 condition.

    Defined for any graph: components of G[N(u)] are counted as isolated
    vertices (pendant attachments at u), single edges (triangles through u),
    or larger.  valid is the no-4-vertex-path condition on G[N(u)]; since a
    P4 there plus u closes a 5-cycle, valid is forced to hold whenever g is
    C5-free, and it is recomputed from the definition precisely so that a
    False on such input would expose a detector bug rather than hide it.
    """
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} out of range for order {g.order}")
    comps = _components_of(g.rows, g.rows[u])
    sizes = [comp.bit_count() for comp in comps]
    neighborhood = induced_subgraph(g, g.neighbors(u))
    valid = not contains_path_order(neighborhood, 4)
    return DecompositionReport(
        hub=u,
        valid=valid,
        isolated=sizes.count(1),
        edge_pairs=sizes.count(2),
        other_orders=tuple(sorted(size for size in sizes if size > 2)),
        component_masks=tuple(comps),
    )


@dataclass(frozen=True, slots=True)
class ObservationReport:
    hub: int
    passed: bool
    checked_outside: int
    checked_edges: int
    failures: tuple[str, ...]
    flags: tuple[str, ...]


def _validate_observation_rows(rows, n: int, u: int) -> tuple[list[str], list[str], int, int]:
    """(failures, flags, outside vertices, outside edges) of the attachment
    observations at hub u of the graph on n vertices held in rows.

    The outside vertices, all but u and N(u), are walked as the bits of one
    mask.  A vertex whose attachments miss every component of G[N(u)] of
    order >= 2 touches only singletons, the pendant gadgets, and is settled
    by one AND; it is flagged when it hits two or more.  One hit on a larger
    gadget passes too.  Only a vertex that hits a larger gadget and some
    other vertex needs the components.  An outside edge fails unless an end
    has no attachment or both ends share the same single one, so only the
    edges between attached vertices are walked, as rows[w1] & attached
    above w1.
    """
    nmask = rows[u]
    outside = ((1 << n) - 1) & ~nmask & ~(1 << u)
    reach = 0  # the neighbours of N(u); within N(u), the vertices of larger gadgets
    m = nmask
    while m:
        b = m & -m
        m ^= b
        reach |= rows[b.bit_length() - 1]
    singles = nmask & ~reach
    gadgets = None  # the components of order >= 2, listed on first need
    failures: list[str] = []
    flags: list[str] = []
    attached = 0
    twice_edges = 0
    m = outside
    while m:
        b = m & -m
        m ^= b
        w = b.bit_length() - 1
        row = rows[w]
        twice_edges += (row & outside).bit_count()
        tw = row & nmask
        if not tw:
            continue
        attached |= b
        several = tw & (tw - 1)
        if not tw & reach:
            if several:
                flags.append(f"w={w} attaches to {tw.bit_count()} pendant gadgets")
            continue
        if not several:
            continue
        if gadgets is None:
            gadgets = _components_of(rows, nmask & reach)
        touched = (tw & singles).bit_count()
        for comp in gadgets:
            if comp & tw:
                touched += 1
                hit = comp
        if touched > 1:
            failures.append(f"w={w} attaches to {touched} gadgets, not all pendants")
        elif hit.bit_count() != 2:  # one or both ends of a triangle gadget pass
            failures.append(
                f"w={w} hits {tw.bit_count()} vertices of one order-{hit.bit_count()} gadget"
            )
    m = attached
    while m:
        b = m & -m
        m ^= b
        w1 = b.bit_length() - 1
        row1 = rows[w1]
        t1 = row1 & nmask
        later = row1 & attached & -(b << 1)
        while later:
            b2 = later & -later
            later ^= b2
            w2 = b2.bit_length() - 1
            t2 = rows[w2] & nmask
            if t1 == t2 and not t1 & (t1 - 1):
                continue
            failures.append(f"edge {w1}-{w2} outside the hub has attachments {t1:b} vs {t2:b}")
    return failures, flags, outside.bit_count(), twice_edges >> 1


def validate_observations(g: SmallGraph, u: int) -> ObservationReport:
    """Check the two attachment observations for outside vertices.

    Preconditions (violations raise ValueError): g is C5-free, u has maximum
    degree, and G[N(u)] contains at least one edge.  Both observations are
    consequences of C5-freeness, so failures indicate bugs and are reported,
    never swallowed.
    """
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} out of range for order {g.order}")
    if contains_cycle(g, 5):
        raise ValueError("graph contains a 5-cycle; observation contract requires C5-freeness")
    degs = [r.bit_count() for r in g.rows]
    if degs[u] != max(degs):
        raise ValueError(f"vertex {u} does not have maximum degree")
    if not _has_edge_within(g.rows, g.rows[u]):
        raise ValueError("neighborhood of the hub contains no edge")
    failures, flags, outside, edge_checks = _validate_observation_rows(g.rows, g.order, u)
    return ObservationReport(
        hub=u,
        passed=not failures,
        checked_outside=outside,
        checked_edges=edge_checks,
        failures=tuple(failures),
        flags=tuple(flags),
    )


def _has_edge_within(rows, mask: int) -> bool:
    m = mask
    while m:
        b = m & -m
        m ^= b
        if rows[b.bit_length() - 1] & mask:
            return True
    return False


# ---------------------------------------------------------------------------
# orbit-weighted sweeps (acceptance-scale validation)


@dataclass(frozen=True, slots=True)
class SweepResult:
    n: int
    graphs: int
    pairs_checked: int
    violations: tuple[str, ...]


def _check_validity(rows, deg, n: int, violations: list[str]) -> int:
    pairs = 0
    for u, d in enumerate(deg):
        if d < 4:
            continue
        pairs += 1
        nmask = rows[u]
        if not _has_edge_within(rows, nmask):
            continue
        # one message per component that holds a 4-vertex path
        for comp in _components_of(rows, nmask):
            size = comp.bit_count()
            if size >= 4 and not _is_star(rows, comp, size):
                violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u}")
    return pairs


def _check_observations(rows, deg, n: int, violations: list[str]) -> int:
    dmax = max(deg, default=0)
    if dmax < 2:  # an edge in N(u) needs two neighbours
        return 0
    pairs = 0
    for u, d in enumerate(deg):
        if d != dmax or not _has_edge_within(rows, rows[u]):
            continue
        pairs += 1
        failures, _, _, _ = _validate_observation_rows(rows, n, u)
        for msg in failures:
            violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u}: {msg}")
    return pairs


def _check_completion(rows, deg, n: int, violations: list[str]) -> int:
    dmax = max(deg, default=0)
    if dmax == 0:
        return 0
    pairs = 0
    for u, d in enumerate(deg):
        if d == dmax and not _has_edge_within(rows, rows[u]):
            pairs += 1
    return pairs


def _check_picks(check, n: int, rows, deg, mask: int, violations: list[str]) -> tuple[int, int]:
    """Run check(rows, deg, n, violations) at each leaf below a graph G from
    _walk_classes: G on n - 1 vertices, held in rows and deg padded to n
    vertices, and its last vertex v = n - 1 joined in place to each S of
    mask's set bits, in increasing order: G's pick mask for a sweep, the
    picks it lists for the search (_score_picks).  Returns (leaves, pairs),
    pairs the sum of what check returned.  At n = 0 the one leaf is the
    empty graph."""
    if not n:
        return 1, check(rows, deg, n, violations)
    last = n - 1
    last_bit = 1 << last
    bit_lists = _bit_lists(last)
    picks = _members(mask)
    pairs = 0
    for s in picks:
        members = bit_lists[s]
        for i in members:
            rows[i] |= last_bit
            deg[i] += 1
        rows[last] = s
        deg[last] = len(members)
        pairs += check(rows, deg, n, violations)
        for i in members:
            rows[i] ^= last_bit
            deg[i] -= 1
    return len(picks), pairs


def _sweep(n: int, check, force: bool) -> SweepResult:
    """Run check(rows, deg, n, violations), which returns the number of
    (graph, hub) pairs it tested, at each leaf below the graphs of
    _walk_classes (_check_picks), weighted by the labeled graphs each
    stands for.  Every check is invariant under relabeling, so `graphs`,
    `pairs_checked` and the violation counts are exact labeled counts.

    Each distinct message a walked leaf shows is listed once, in walk
    order, as "<message> x<count>": count sums the weight of the leaf once
    per showing, so it is the number of labeled violations the message
    stands for, and the counts add up to the labeled total.  A message
    names the walked leaf, so isomorphic leaves under different
    representatives are listed apart.
    """
    _check_search_order(n, force)
    counts: dict[str, int] = {}
    violations: list[str] = []
    graphs = pairs = 0
    for rows, deg, mask, weight, _ in _walk_classes(n, _twin_picks):
        leaves, tested = _check_picks(check, n, rows, deg, mask, violations)
        graphs += weight * leaves
        pairs += weight * tested
        for message in violations:
            counts[message] = counts.get(message, 0) + weight
        violations.clear()
    listed = tuple(f"{message} x{count}" for message, count in counts.items())
    return SweepResult(n=n, graphs=graphs, pairs_checked=pairs, violations=listed)


def sweep_neighborhood_validity(n: int, *, force: bool = False) -> SweepResult:
    """Check the no-P4 neighborhood condition for every (C5-free g, u).

    A 4-vertex path needs four vertices, so only hubs of degree >= 4 can
    fail; everything else is valid by counting.  Each violation comes back
    as graph6 and hub with its labeled count (see _sweep); the expected
    result is none.
    """
    return _sweep(n, _check_validity, force)


def sweep_observations(n: int, *, force: bool = False) -> SweepResult:
    """Run the attachment observations over every C5-free graph on n vertices
    and every max-degree hub whose neighborhood contains an edge.  Each
    failure comes back as graph6, hub and message with its labeled count
    (see _sweep)."""
    return _sweep(n, _check_observations, force)


def sweep_bipartite_completion(n: int, *, force: bool = False) -> SweepResult:
    """Count the pairs at which the paper completes a graph: every C5-free
    graph on n vertices with an edge and every max-degree hub of it whose
    neighborhood is independent.

    Completing at such a hub never lowers a degree, on any graph: a
    neighbour of u has all its neighbours among the n - dmax vertices
    outside N(u), which completing joins it to, and every other vertex ends
    at dmax, which no degree exceeds.  So the sweep checks nothing at its
    pairs and lists no violation, and a clean run is no evidence for the
    paper's observations.
    """
    return _sweep(n, _check_completion, force)
