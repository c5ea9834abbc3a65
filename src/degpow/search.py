"""Exhaustive search over C5-free graphs and structural validators.

The reference, enumerate_c5_free, visits every labeled C5-free graph
exactly once: it decides the edges (0,1), (0,2), (1,2), (0,3), ... one at a
time and cuts the include branch the moment the new edge would close a
5-cycle; containment is monotone, so the cut is exact.  Since that order
lists (0,j), (1,j), ..., (j-1,j) together, it picks vertex j's
neighbourhood S in {0..j-1} bit by bit, and joining j to S closes a 5-cycle
exactly when two members of S end a path a-x-y-b on four distinct vertices
of G[0..j-1].  The search and the sweeps therefore add one vertex at a
time, by one child step (_children): each graph on j vertices keeps those
path ends, updated from its parent's (_conflicts_after), so each include
test is one AND.  Taking the bits of S include-first (_picks) follows
the reference's leaf order.
Labeled counts grow fast (9,369,687 at n = 8), which is why the leaf work
is all bitmask arithmetic on raw adjacency rows; the SmallGraph API
appears only at the edges of the module.

The extremal search and the validator sweeps split the walk at the first
k = n - 2 vertices (k = 0 below n = 3): the C5-free graphs on vertices
0..k-1, as tuples of adjacency rows, are the prefixes, and _prefixes lists
them in the reference's order.  Every later edge touches a vertex >= k,
so a permutation of {0..k-1} maps the completions of one prefix
one-to-one onto the completions of its image, keeping e_p, C5-freeness,
the isomorphism class and every property the sweeps test.  _prefix_orbits grows the orbits one vertex at a
time and keeps one graph per class, making only the children whose new
vertex has the maximum degree (canonical deletion, McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998); that degree rule is one
filter on the twin picks, _max_degree_picks.  A child is keyed by a cheap invariant
first, and by its canonical columns only when another child of its level
shares that invariant: at n = 9 that labels 278 of the 536 children that
make the 251 orbits of the 316,453 prefixes on 7 vertices, without listing
the prefixes.  Each class carries its path ends, grown from its parent's.
Both consumers then loop over one class walk, the generator _walk_classes:
it joins vertex n - 2 to each representative by the step that grows the
classes, _children, through twin picks only, all of them (_twin_picks)
for a sweep and those of _max_degree_picks for the search, and yields
each graph on n - 1 vertices with its path ends, weighted by the orbit
size times the picks it stands for, so `visited`, `graphs` and
`pairs_checked` stay exact labeled counts.  The search starts from the
e_p of the book graph and of the best K_{b,n-b}, as the constructions
give them, scores the picks of the last vertex only for the exponents
that may still reach their incumbent, and otherwise just counts them; a
sweep checks them in place (_check_picks) and counts the violations they
show, weighted like the graphs.  Violations name labeled graphs, so a
sweep that counts any lists them with the labeled reference, _run_tree,
which must find exactly as many.  Everything runs in one process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

from .asymptotics import best_biclique_split
from .constructions import JoinCliqueEmpty, degree_profile
from .graphs import (
    CapacityError,
    SmallGraph,
    _canonical_columns,
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


def _edge_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _run_tree(n: int, leaf) -> None:
    """The edge-decision tree: leaf(rows) at every labeled C5-free graph."""
    edges = _edge_order(n)
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
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
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
    if visitor is None:
        def leaf(rows):
            nonlocal count
            count += 1
    else:
        def leaf(rows):
            nonlocal count
            count += 1
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


def _conflicts(rows, j: int) -> list[int]:
    """conflict[a] for each a < j: the vertices b that end a path a-x-y-b on
    four distinct vertices of G[0..j-1].  A new vertex j joined to a and b
    closes a 5-cycle exactly when bit b of conflict[a] is set."""
    conflict: list[int] = []
    for i in range(j):
        conflict = _conflicts_after(rows, i, conflict)
    return conflict


def _conflicts_after(rows, j: int, conflict: list[int]) -> list[int]:
    """_conflicts(rows, j + 1), given conflict = _conflicts(rows, j): the
    path ends once vertex j has joined S, its neighbours below j.

    Only paths through j are new.  With j second, a-j-y-b: a and y are in
    S and b is a neighbour of y, so for a in S, b is a neighbour of a second
    member of S (in `twice`) or of some member but not of a.  With j third,
    the same path read from b: a's neighbour x is in S and b is another
    member of S, any member but a once a has two neighbours in S.  With j
    at an end, the other end is two steps from a member y of S, other than y.
    """
    j_bit = 1 << j
    below = j_bit - 1
    s = rows[j] & below
    bit_lists = _bit_lists(j)
    once = twice = ends = 0
    for y in bit_lists[s]:
        near = rows[y] & below
        twice |= once & near
        once |= near
        two_steps = 0
        for z in bit_lists[near]:
            two_steps |= rows[z]
        ends |= two_steps & ~(1 << y)
    ends &= below
    grown = []
    for a, found in enumerate(conflict):
        a_bit = 1 << a
        near = rows[a] & below
        if s & a_bit:
            found |= (twice | once & ~near) & ~a_bit
        middles = near & s
        if middles:
            found |= s & ~a_bit & ~(0 if middles & (middles - 1) else middles)
        if ends & a_bit:
            found |= j_bit
        grown.append(found)
    grown.append(ends)
    return grown


def _picks(conflict: list[int], smaller: Optional[list[int]] = None) -> list[int]:
    """The neighbourhoods S in {0..j-1} that vertex j can take in the C5-free
    graph G[0..j-1], given its conflict = _conflicts(rows, j): no two
    members of S in conflict.  S is grown bit by bit, i = 0..j-1, the
    include branch first, which is the edge-decision tree's order of its
    leaves.  With smaller, the _smaller_twins of G[0..j-1], S takes a
    vertex only once it holds all of that vertex's smaller twins."""
    picks = [0]
    for i, ends in enumerate(conflict):
        bit = 1 << i
        need = smaller[i] if smaller else 0
        grown = []
        for s in picks:
            if not ends & s and not need & ~s:
                grown.append(s | bit)
            grown.append(s)
        picks = grown
    return picks


@cache
def _bit_lists(j: int) -> tuple[tuple[int, ...], ...]:
    """Entry s lists the set bits of s in increasing order, for every subset s
    of {0..j-1}."""
    if j == 0:
        return ((),)
    shorter = _bit_lists(j - 1)
    return shorter + tuple(members + (j - 1,) for members in shorter)


def _prefixes(k: int) -> list[tuple[int, ...]]:
    """All C5-free graphs on vertices 0..k-1 as adjacency-row tuples, in the
    order of the labeled reference, _run_tree."""
    found: list[tuple[int, ...]] = []
    _run_tree(k, lambda rows: found.append(tuple(rows)))
    return found


def _twin_weights(smaller: list[int], picks: Iterable[int]) -> list[tuple[int, int]]:
    """(S, weight) for each pick S, where weight, the product of
    C(|T|, |S & T|) over the twin classes T given by smaller (see
    _smaller_twins), counts the picks that S stands for."""
    # keyed by the smallest member; the largest member's entry, the whole
    # class, comes last and wins
    twin_classes = {b & -b: b | 1 << v for v, b in enumerate(smaller) if b}.values()
    return [
        (s, math.prod(math.comb(t.bit_count(), (s & t).bit_count()) for t in twin_classes))
        for s in picks
    ]


def _twin_picks(rows, j: int, conflict: list[int]) -> list[tuple[int, int]]:
    """(S, weight) for the picks S of vertex j (see _picks) that meet each
    twin class T of G[0..j-1] in its smallest members, where weight counts
    the picks that S stands for (_twin_weights).

    Permuting a twin class is an automorphism of G[0..j-1].  It maps the
    picks onto each other, and every graph that extends G[0..j-1] + S onto
    an isomorphic one that extends the image of S, with the same e_p.
    """
    smaller = _smaller_twins(rows, j)
    return _twin_weights(smaller, _picks(conflict, smaller))


def _max_degree_picks(rows, j: int, conflict: list[int]) -> list[tuple[int, int]]:
    """The (S, weight) of _twin_picks after which vertex j has the maximum
    degree in G[0..j]: |S| is at least every degree of G[0..j-1] and above
    those of S's members, which S raises.  In the same order.

    The twin picks are filtered after the fact: S stays when |S| >= top,
    the top degree of G[0..j-1], plus one if S holds a vertex of degree
    top.  The picks that one twin pick stands for are its images under
    automorphisms of G[0..j-1], so the test passes for all of them or
    none, and only the picks that pass are weighed.
    """
    below = (1 << j) - 1
    degrees = [(rows[i] & below).bit_count() for i in range(j)]
    top = max(degrees, default=0)
    tops = sum(1 << i for i, d in enumerate(degrees) if d == top)
    smaller = _smaller_twins(rows, j)
    picks = _picks(conflict, smaller)
    return _twin_weights(smaller, [s for s in picks if s.bit_count() >= top + bool(s & tops)])


def _exact_share(total: int, parts: int) -> int:
    """total / parts, which the orbit-counting arguments make exact."""
    share, rest = divmod(total, parts)
    if rest:
        raise ArithmeticError(f"{total} / {parts} is not exact")
    return share


def _invariant(rows, j: int) -> tuple[tuple[int, int], ...]:
    """An isomorphism invariant of the graph on vertices 0..j-1 held in
    rows: its sorted (degree, sum of the neighbours' squared degrees)
    pairs.  Much cheaper than _canonical_columns, and equal for isomorphic
    graphs."""
    degrees = [row.bit_count() for row in rows]
    squares = [d * d for d in degrees]
    bit_lists = _bit_lists(j)
    return tuple(sorted(
        (d, sum(squares[u] for u in bit_lists[row])) for d, row in zip(degrees, rows)
    ))


def _children(orbits, j: int, picks):
    """(child, count, conflict) for each (rep, size, conflict) in orbits, a
    representative on vertices 0..j-1 with its path ends _conflicts(rep, j),
    and each (S, weight) in picks(rep, j, conflict): child is a new row
    list, rep with vertex j joined to S, and count = size * weight the
    labeled graphs it stands for."""
    members = _bit_lists(j)
    j_bit = 1 << j
    for rep, size, conflict in orbits:
        for s, weight in picks(rep, j, conflict):
            child = [*rep, s]
            for i in members[s]:
                child[i] |= j_bit
            yield child, size * weight, conflict


def _prefix_orbits(
    k: int, stats: Optional[SearchStats] = None
) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """(representative, orbit size, path ends) for each S_k orbit of the
    C5-free prefixes on vertices 0..k-1: representatives as row tuples,
    path ends as _conflicts(representative, k).  A representative is some
    member of its orbit whose last vertex has the maximum degree, not the
    orbit's first prefix in _prefixes order.

    The orbits are grown one vertex at a time, by canonical deletion of a
    maximum-degree vertex (McKay 1998).  Level j makes the _children at
    vertex j-1 of each representative D on j-1 vertices through
    _max_degree_picks, those after which the new vertex j-1 has the
    maximum degree; the first such child of a class C represents it, and
    its path ends are _conflicts_after applied to D's.  Every class is
    reached: relabel a member of C so that j-1 has the maximum degree;
    deleting j-1 leaves a graph in some orbit D, and moving that graph onto
    D's representative while fixing j-1 gives a pick of D whose child lies
    in C with j-1 at the max degree.

    Children are keyed invariant first.  Isomorphic children share their
    _invariant, so a child whose invariant no other child of its level has
    is a class of its own; only the children that share one are told apart
    by _canonical_columns.  Classes keep the order of their first children.

    Sizes need no automorphism group.  A permutation of D's vertices that
    fixes j-1 maps D's picks onto those of any relabeling of D, class by
    class, so sigma, the sum over D of |orbit of D| * (weights of D's
    picks that land in C), counts the labeled members of C whose vertex
    j-1 has the maximum degree.  By symmetry that is |C| * mu / j, with mu
    the number of max-degree vertices of C, so |C| = j * sigma / mu, an
    exact division.
    """
    orbits = [((), 1, [])]
    for j in range(1, k + 1):
        last = j - 1
        children = []  # (child, labeled members it counts, parent's path ends, invariant)
        shared: dict[tuple, int] = {}  # invariant -> children that have it
        for child, count, conflict in _children(orbits, last, _max_degree_picks):
            invariant = _invariant(child, j)
            shared[invariant] = shared.get(invariant, 0) + 1
            children.append((tuple(child), count, conflict, invariant))
        classes: dict[tuple, list] = {}
        keyed = 0
        for child, count, conflict, invariant in children:
            if shared[invariant] > 1:
                keyed += 1
                key = (invariant, _canonical_columns(child, j))
            else:
                key = (invariant, None)
            classes.setdefault(key, [child, 0, conflict])[1] += count
        if stats is not None:
            stats.prefix_children += len(children)
            stats.canonical_keyings += keyed
        orbits = []
        for child, sigma, conflict in classes.values():
            degrees = [row.bit_count() for row in child]
            mu = degrees.count(degrees[last])
            orbits.append((child, _exact_share(j * sigma, mu), _conflicts_after(child, last, conflict)))
    return orbits


def _walk_classes(n: int, picks, stats: Optional[SearchStats] = None):
    """Yield (rows, deg, conflict, weight) once for each graph G on the first
    n - 1 vertices that the classes of _prefix_orbits(k), k = max(n - 2, 0),
    complete: the _children at vertex n - 2 of each representative through
    picks, _twin_picks for the sweeps and _max_degree_picks for the search.
    Below n = 2 there is no vertex n - 2, and the one representative is G.

    rows and deg are new lists that hold G padded to n vertices, conflict
    is _conflicts(rows, n - 1), and weight, the orbit size times the twin
    weight of S, counts the labeled graphs on n - 1 vertices that G stands
    for: each of them is a yielded G relabeled on {0..k-1} and within the
    twin classes of its representative.  stats gets the phase times once
    the walk ends.
    """
    start = time.perf_counter()
    k = max(n - 2, 0)
    orbits = _prefix_orbits(k, stats)
    grouped = time.perf_counter()
    if n < 2:
        for _, size, conflict in orbits:
            yield [0] * n, [0] * n, conflict, size
    else:
        for rows, weight, conflict in _children(orbits, k, picks):
            rows.append(0)  # vertex n - 1, not joined yet
            deg = [row.bit_count() for row in rows]
            yield rows, deg, _conflicts_after(rows, k, conflict), weight
    if stats is not None:
        stats.walk_s += time.perf_counter() - grouped
        stats.orbit_grouping_s += grouped - start
        stats.labeled_prefixes += sum(size for _, size, _ in orbits)
        stats.orbit_representatives += len(orbits)


def _count_picks(conflict: list[int]) -> int:
    """len(_picks(conflict)) without listing the picks: the independent
    sets of the graph on {0..len(conflict)-1} whose edges are the
    conflicts."""
    return _independent_sets(conflict, (1 << len(conflict)) - 1)


def _independent_sets(conflict: list[int], free: int) -> int:
    """The subsets of free with no two members in conflict.  A member in
    conflict with no other member doubles the count.  When the rest pair
    off, each pair is taken in 3 ways; otherwise branch on the member with
    the most conflicts: without it, or with it and none of its partners."""
    lone = 0
    most = branch = 0
    rest = free
    while rest:
        bit = rest & -rest
        rest ^= bit
        partners = (conflict[bit.bit_length() - 1] & free).bit_count()
        if not partners:
            lone += 1
            free ^= bit
        elif partners > most:
            most, branch = partners, bit
    if most < 2:
        return 3 ** (free.bit_count() >> 1) << lone
    free ^= branch
    without = _independent_sets(conflict, free)
    joined = _independent_sets(conflict, free & ~conflict[branch.bit_length() - 1])
    return (without + joined) << lone


def _score_picks(tables, best, ties, rows, deg, conflict) -> tuple[int, bool]:
    """Score the leaves below a graph G on n - 1 vertices from the search's
    class walk, held in rows and deg padded to n vertices, with path ends
    conflict.  Returns (leaves, counted), counted when the leaves were only
    counted, not listed.  tables holds (p, [d**p for d = 0..n]) per
    exponent; best[p] and ties[p], shared by all visits, hold the highest
    e_p so far and the leaves that reach it.

    Each neighbourhood S in _picks of the last vertex v = n-1 is one leaf,
    and its e_p is that of G, plus |S|^p, plus (d+1)^p - d^p for each
    member of S of degree d in G.  Joining v to every vertex of G would
    score at least as much, so an exponent whose best so far is higher
    skips the visit; a tie is still scored.  When every exponent skips it,
    the leaves are counted (_count_picks), not listed.
    """
    last = len(rows) - 1
    live = []
    for p, table in tables:
        base = joined = 0
        for d in deg[:last]:
            base += table[d]
            joined += table[d + 1]
        if last < 0 or joined + table[last] >= best[p]:
            live.append((p, table, base))
    if not live:
        return _count_picks(conflict), True
    if last < 0:  # n = 0: the one leaf is the empty graph
        for p, _ in tables:
            best[p] = 0
            ties[p] = [()]
        return 1, False
    picks = _picks(conflict)
    last_bit = 1 << last
    bit_lists = _bit_lists(last)
    for p, table, base in live:
        top = best[p]
        gain = [table[d + 1] - table[d] for d in deg]
        for s in picks:
            members = bit_lists[s]
            score = base + table[len(members)]
            for i in members:
                score += gain[i]
            if score >= top:
                leaf = rows.copy()
                for i in members:
                    leaf[i] |= last_bit
                leaf[last] = s
                if score > top:
                    top = score
                    ties[p] = [tuple(leaf)]
                else:
                    ties[p].append(tuple(leaf))
        best[p] = top
    return len(picks), False


def _seed(n: int, p: int) -> int:
    """The higher e_p of the book graph K2 + empty(n - 2) and of the best
    complete bipartite K_{b,n-b}, as the constructions give them, and 0
    below n = 2.  Both are C5-free, so ex_p(n, C5) is at least this."""
    if n < 2:
        return 0
    book = degree_profile(JoinCliqueEmpty(2, n - 2)).power_sum(p)
    return max(book, best_biclique_split(n, p)[1])


@dataclass(slots=True)
class SearchStats:
    """What search_extremal did, summed over the calls it is handed to.

    Kept apart from SearchResult so that payloads stay byte-reproducible;
    the CLI prints it on stderr under --stats.
    """

    labeled_prefixes: int = 0
    orbit_representatives: int = 0
    prefix_children: int = 0  # children whose new vertex has the max degree, keyed by invariant
    canonical_keyings: int = 0  # of those, the ones that shared it and needed canonical columns
    leaves_walked: int = 0
    visits_scored: int = 0  # graphs on n - 1 vertices whose last vertex has the max degree
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
        if p < 1:
            raise ValueError(f"exponent p must be >= 1, got {p}")

    tables = [(p, [d ** p for d in range(n + 1)]) for p in ps]
    # the seeds are reached by some leaf, and >= keeps every leaf that ties
    best = {p: _seed(n, p) for p in ps}
    ties: dict[int, list[tuple[int, ...]]] = {p: [] for p in ps}
    # Every class C on n - 1 vertices is visited, with vertex n - 2 at the
    # max degree, so every leaf class is reached: a leaf less its last
    # vertex lies in some C.  By the argument of _prefix_orbits, the weights
    # of C's visits add up to |C| * mu / (n - 1), with mu the number of
    # max-degree vertices of C, and every member of C has as many picks as
    # a visit.  So `visited` is the sum over mu of (n - 1) / mu times the
    # weighted leaves of the visits with that mu, an exact division.  Below
    # n = 2 the one visit stands for itself.
    weighted: dict[int, int] = {}  # mu -> weighted leaves
    leaves_walked = visits_scored = visits_counted = 0
    for rows, deg, conflict, weight in _walk_classes(n, _max_degree_picks, stats):
        leaves, counted = _score_picks(tables, best, ties, rows, deg, conflict)
        degrees = deg[: n - 1]
        mu = degrees.count(max(degrees)) if degrees else 1
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
                "max_degree_ratio": f"{rec.max_degree}/{result.n}",
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
    distinct exponent, in first-seen order."""
    report = []
    p_list = list(dict.fromkeys(p_values))
    for n in n_values:
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
    # completing at u takes each neighbour of u to degree n - dmax and every
    # other vertex to dmax, which no degree exceeds
    after = n - dmax
    pairs = 0
    for u, d in enumerate(deg):
        if d != dmax:
            continue
        nmask = rows[u]
        if _has_edge_within(rows, nmask):
            continue
        pairs += 1
        if after >= dmax:
            continue
        m = nmask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if deg[v] > after:
                violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u} v={v}")
    return pairs


def _check_picks(
    check, n: int, rows, deg, conflict: list[int], violations: list[str]
) -> tuple[int, int]:
    """Run check(rows, deg, n, violations) at each leaf below a graph G from
    _walk_classes: G on n - 1 vertices, held in rows and deg padded to n
    vertices, with path ends conflict, and its last vertex v = n - 1 joined
    in place to each S of _picks(conflict).  Returns (leaves, pairs), pairs
    the sum of what check returned.  At n = 0 the one leaf is the empty
    graph."""
    if not n:
        return 1, check(rows, deg, n, violations)
    last = n - 1
    last_bit = 1 << last
    bit_lists = _bit_lists(last)
    picks = _picks(conflict)
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
    `pairs_checked` and the number of violations are exact labeled counts.

    Violations name labeled graphs, so when the class walk counts any, the
    labeled reference, _run_tree, runs check at every leaf again and lists
    them in its order.  That walk shares no step with the class walk and
    must list exactly as many violations as the class walk counted.
    """
    _check_search_order(n, force)
    violations: list[str] = []
    graphs = pairs = expected = 0
    for rows, deg, conflict, weight in _walk_classes(n, _twin_picks):
        leaves, tested = _check_picks(check, n, rows, deg, conflict, violations)
        graphs += weight * leaves
        pairs += weight * tested
        expected += weight * len(violations)
        violations.clear()
    if expected:
        _run_tree(n, lambda rows: check(rows, [row.bit_count() for row in rows], n, violations))
        if len(violations) != expected:
            raise RuntimeError(
                f"the labeled walk listed {len(violations)} violations at n={n}, "
                f"the class walk counted {expected}"
            )
    return SweepResult(n=n, graphs=graphs, pairs_checked=pairs, violations=tuple(violations))


def sweep_neighborhood_validity(n: int, *, force: bool = False) -> SweepResult:
    """Check the no-P4 neighborhood condition for every (C5-free g, u).

    A 4-vertex path needs four vertices, so only hubs of degree >= 4 can
    fail; everything else is valid by counting.  Violating graphs come back
    as graph6 strings (the expected result is none).
    """
    return _sweep(n, _check_validity, force)


def sweep_observations(n: int, *, force: bool = False) -> SweepResult:
    """Run the attachment observations over every C5-free graph on n vertices
    and every max-degree hub whose neighborhood contains an edge."""
    return _sweep(n, _check_observations, force)


def sweep_bipartite_completion(n: int, *, force: bool = False) -> SweepResult:
    """Verify completion monotonicity: splitting at a max-degree hub with
    independent neighborhood never lowers any degree.

    This holds on every graph, C5-free or not, so the sweep cannot report a
    violation and only counts the pairs: with N(u) independent, a neighbour
    of u has all its neighbours among the n - dmax vertices outside N(u),
    which completing at u joins it to, and every other vertex ends at dmax,
    which no degree exceeds.  A clean run is therefore no evidence for the
    paper's observations.
    """
    return _sweep(n, _check_completion, force)
