"""Exhaustive-search layer: enumeration counts, extremal values, maximizer
classification, and the neighborhood validators driven by the same walker."""

import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest

from degpow import search
from degpow.asymptotics import best_biclique_split
from degpow.constructions import (
    CompleteBipartite,
    GPrime,
    GStar,
    JoinCliqueEmpty,
    bipartite_completion,
    build,
    degree_profile,
)
from degpow.graphs import (
    CapacityError,
    SmallGraph,
    _refine_colors,
    _smaller_twins,
    canonical_form,
    canonical_relabel,
    contains_cycle,
    degree_sequence,
    degree_power_sum,
    from_edges,
    from_graph6,
    naive_contains_cycle,
    to_graph6,
)
from degpow.search import (
    SearchStats,
    _prefix_orbits,
    _prefixes,
    classify_maximizers,
    collect_c5_free,
    enumerate_c5_free,
    ex_p,
    max_degree_ratio,
    neighborhood_decomposition,
    search_extremal,
    sweep_bipartite_completion,
    sweep_neighborhood_validity,
    sweep_observations,
    validate_observations,
)

SRC = Path(__file__).resolve().parent.parent / "src"

PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def all_graphs(n):
    edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(edges)):
        yield from_edges(n, [e for i, e in enumerate(edges) if (bits >> i) & 1])


# ---------------------------------------------------------------------------
# list-based references for the pick masks


def _conflicts(rows, j):
    """conflict[a] for each a < j: the vertices b that end a path a-x-y-b on
    four distinct vertices of G[0..j-1].  A new vertex j joined to a and b
    closes a 5-cycle exactly when bit b of conflict[a] is set."""
    conflict = []
    for i in range(j):
        conflict = _conflicts_after(rows, i, conflict)
    return conflict


def _conflicts_after(rows, j, conflict):
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
    once = twice = ends = 0
    for y in range(j):
        if not s >> y & 1:
            continue
        near = rows[y] & below
        twice |= once & near
        once |= near
        two_steps = 0
        for z in range(j):
            if near >> z & 1:
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


def _picks(conflict, smaller=None):
    """The neighbourhoods S in {0..j-1} that vertex j can take, given its
    conflict = _conflicts(rows, j): no two members of S in conflict, grown
    bit by bit with the include branch first.  With smaller, the
    _smaller_twins of G[0..j-1], S takes a vertex only once it holds all of
    that vertex's smaller twins."""
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


def _listed_mask(rows, j):
    """The pick mask of G[0..j-1] from the listed picks of its path ends."""
    return sum(1 << s for s in _picks(_conflicts(rows, j)))


def _pick_mask(rows, j):
    """The pick mask of G[0..j-1], folded vertex by vertex with the child
    step of the class growth."""
    mask = 1
    for i in range(j):
        below = (1 << i) - 1
        mask = search._mask_after([row & below for row in rows[:i]], i, mask, rows[i] & below)
    return mask


def _reference_twin_picks(rows, j):
    """(S, weight, j + 1) for the listed picks that meet each twin class in
    its smallest members, in increasing order of S."""
    smaller = _smaller_twins(rows, j)
    picks = search._twin_weights(smaller, _picks(_conflicts(rows, j), smaller))
    return [(s, weight, j + 1) for s, weight in sorted(picks)]


def _joined(rows, j, s):
    """G[0..j-1] of rows with vertex j joined to S, as a new row list."""
    return [(row & (1 << j) - 1) | (s >> i & 1) << j for i, row in enumerate(rows[:j])] + [s]


def _reference_top_picks(rows, j, invariant):
    """(S, weight, mu) for the reference twin picks after which vertex j has
    the largest invariant(child) value in the child, mu the number of the
    child's vertices that have it."""
    kept = []
    for s, weight, _ in _reference_twin_picks(rows, j):
        values = invariant(_joined(rows, j, s))
        if values[j] == max(values):
            kept.append((s, weight, values.count(values[j])))
    return kept


def _degrees(rows):
    return [row.bit_count() for row in rows]


def _degree_pairs(rows):
    """(deg v, s(v)) per vertex, s(v) the sum of the degrees of v's
    neighbours."""
    deg = _degrees(rows)
    return [(d, sum(deg[u] for u in range(len(rows)) if row >> u & 1)) for d, row in zip(deg, rows)]


def _reference_max_degree_picks(rows, j):
    """The reference twin picks after which vertex j has the maximum degree."""
    return _reference_top_picks(rows, j, _degrees)


def _reference_canonical_picks(rows, j):
    """The reference twin picks after which vertex j has the largest
    (degree, neighbour-degree sum)."""
    return _reference_top_picks(rows, j, _degree_pairs)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts(small_oracle):
    assert enumerate_c5_free(0) == 1
    for n in range(1, 7):
        assert enumerate_c5_free(n) == small_oracle["labeled_counts"][str(n)]


def test_enumeration_count_n7(small_oracle):
    assert enumerate_c5_free(7) == small_oracle["labeled_counts"]["7"] == 316453


def test_enumeration_matches_brute_filter_n5():
    # independent ground truth: filter all 2^10 labeled graphs
    brute = sum(1 for g in all_graphs(5) if not contains_cycle(g, 5))
    assert brute == 806 == enumerate_c5_free(5)


def test_collect_returns_distinct_c5_free_graphs():
    graphs = collect_c5_free(4)
    assert len(graphs) == 64  # no room for a 5-cycle on 4 vertices
    assert len({g.rows for g in graphs}) == 64
    graphs5 = collect_c5_free(5)
    assert len(graphs5) == 806
    assert all(not contains_cycle(g, 5) for g in graphs5)


def test_visitor_sees_raw_rows():
    seen = []
    enumerate_c5_free(3, lambda rows: seen.append(tuple(rows)))
    assert len(seen) == 8
    assert len(set(seen)) == 8
    assert (0, 0, 0) in seen  # empty graph comes out of the all-exclude branch


def test_conflicts_are_the_pairs_that_close_a_c5():
    rng = random.Random(3)
    checked = closing = 0
    while checked < 150:
        n = rng.randint(2, 8)
        density = rng.uniform(0.1, 0.6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        if naive_contains_cycle(from_edges(n, edges), 5):
            continue
        checked += 1
        conflict = _conflicts(from_edges(n, edges).rows, n)
        for a in range(n):
            assert not (conflict[a] >> a) & 1
        for a, b in itertools.combinations(range(n), 2):
            grown = from_edges(n + 1, edges + [(a, n), (b, n)])
            closes = naive_contains_cycle(grown, 5)
            closing += closes
            assert bool((conflict[a] >> b) & 1) == bool((conflict[b] >> a) & 1) == closes, (edges, a, b)
    assert closing > 100


# ---------------------------------------------------------------------------
# extremal values against the frozen oracle


def test_extremal_values_small_orders(small_oracle):
    for n in range(1, 7):
        for p, key in ((1, "ex_1"), (2, "ex_2"), (3, "ex_3")):
            res = ex_p(n, p)
            assert res.value == small_oracle[key][str(n)], (n, p)
            assert res.visited == small_oracle["labeled_counts"][str(n)]


def test_extremal_value_n7_p2(small_oracle):
    res = ex_p(7, 2)
    assert res.value == small_oracle["ex_2"]["7"] == 92
    # join of an edge with 5 isolated vertices: degrees 6,6,2,2,2,2,2
    assert len(res.maximizers) == 1
    assert res.maximizers[0].max_degree == 6
    assert res.maximizers[0].biclique is None


def test_ex1_equals_twice_max_edges(small_oracle):
    for n in range(1, 7):
        assert ex_p(n, 1).value == 2 * small_oracle["max_edges"][str(n)]


def test_k4_is_unique_maximizer_for_every_p():
    for p in (1, 2, 5, 9):
        res = ex_p(4, p)
        assert res.value == 4 * 3 ** p
        assert len(res.maximizers) == 1
        rec = res.maximizers[0]
        assert rec.edge_count == 6
        assert rec.biclique is None
        assert to_graph6(rec.graph) == "C~"


def test_p2_maximizer_shapes():
    # at n=5, p=2 the book J(2,3) ties with K4 plus a pendant edge; by n=6
    # the book stands alone
    res5 = ex_p(5, 2)
    assert res5.value == 44
    assert [rec.max_degree for rec in res5.maximizers] == [4, 4]
    assert {rec.edge_count for rec in res5.maximizers} == {7}
    assert all(rec.biclique is None for rec in res5.maximizers)
    res6 = ex_p(6, 2)
    assert res6.value == 66
    assert [rec.max_degree for rec in res6.maximizers] == [5]


def test_every_maximizer_is_edge_maximal():
    # adding an edge strictly raises every power sum, so no edge can be
    # added to a maximizer without closing a 5-cycle
    for n in range(1, 8):
        found = search_extremal(n, [1, 2, 3])
        for p in (1, 2, 3):
            for rec in found[p].maximizers:
                g = rec.graph
                for u, v in itertools.combinations(range(n), 2):
                    if not g.has_edge(u, v):
                        grown = from_edges(n, g.edges() + [(u, v)])
                        assert naive_contains_cycle(grown, 5), (n, p, rec.canonical, u, v)


def test_multi_p_single_pass_agrees_with_single_p():
    combined = search_extremal(6, [1, 2, 3])
    for p in (1, 2, 3):
        alone = ex_p(6, p)
        assert combined[p].value == alone.value
        assert combined[p].maximizers == alone.maximizers


def test_search_input_validation():
    with pytest.raises(ValueError):
        search_extremal(5, [])
    with pytest.raises(ValueError):
        search_extremal(5, [0])
    with pytest.raises(ValueError):
        ex_p(-1, 2)


ORDER_ENTRIES = {
    "search_extremal": lambda n: search_extremal(n, [2]),
    "classification_report": lambda n: search.classification_report([n], [2]),
    "enumerate_c5_free": enumerate_c5_free,
    "sweep_neighborhood_validity": sweep_neighborhood_validity,
    "sweep_observations": sweep_observations,
    "sweep_bipartite_completion": sweep_bipartite_completion,
}


@pytest.mark.parametrize("n", [-1, True, False, 8.0])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_every_order_entry_takes_only_an_integer_of_at_least_zero(entry, n):
    with pytest.raises(ValueError, match=f"order must be an integer >= 0, got {n}$"):
        ORDER_ENTRIES[entry](n)


def test_trivial_orders():
    empty = ex_p(0, 2)
    assert (empty.value, empty.visited) == (0, 1)
    res = ex_p(1, 3)
    assert (res.value, res.visited) == (0, 1)


# ---------------------------------------------------------------------------
# orbit reduction


def _brute_extremal(n, ps):
    """Value, labeled count and canonical maximizer classes, straight from
    the full labeled enumeration."""
    graphs = collect_c5_free(n)
    degrees = [degree_sequence(g) for g in graphs]
    out = {}
    for p in ps:
        sums = [sum(d ** p for d in degs) for degs in degrees]
        best = max(sums)
        classes = {
            to_graph6(canonical_relabel(g)) for g, s in zip(graphs, sums) if s == best
        }
        out[p] = (best, len(graphs), classes)
    return out


def test_orbit_search_matches_labeled_brute_force():
    ps = range(1, 9)
    for n in range(0, 8):
        found = search_extremal(n, ps)
        for p, (value, count, classes) in _brute_extremal(n, ps).items():
            res = found[p]
            assert (res.value, res.visited) == (value, count), (n, p)
            assert {rec.canonical.decode("ascii") for rec in res.maximizers} == classes, (n, p)


def _atlas_c5_free_classes(k):
    return sum(
        1
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == k
        and not any(len(c) == 5 for c in nx.simple_cycles(g, length_bound=5))
    )


def test_prefix_orbits_are_the_isomorphism_classes():
    for k, (labeled, classes) in {4: (64, 11), 5: (806, 26), 6: (13922, 80)}.items():
        orbits = _prefix_orbits(k)
        prefixes = _prefixes(k)
        assert len(orbits) == classes == _atlas_c5_free_classes(k)
        assert sum(size for _, size, _ in orbits) == len(prefixes) == labeled


def test_prefix_orbits_match_canonical_forms_of_the_labeled_prefixes():
    # an oracle that shares no code with the level-by-level growth: every
    # labeled prefix keyed by its certificate.  The children are the
    # twin-pruned picks whose new vertex has the largest (degree,
    # neighbour-degree sum), summed over the levels 1..k; each class carries
    # the pick mask of its representative
    children = [0, 1, 3, 7, 18, 47, 139]
    for k in range(0, 7):
        labeled = {}
        for rows in _prefixes(k):
            cert = canonical_form(SmallGraph(k, rows))
            labeled[cert] = labeled.get(cert, 0) + 1
        stats = SearchStats()
        orbits = _prefix_orbits(k, stats)
        grown = {canonical_form(SmallGraph(k, rows)): size for rows, size, _ in orbits}
        assert len(grown) == len(orbits) and grown == labeled, k
        assert stats.prefix_children == children[k], k
        for rows, _, mask in orbits:
            assert mask == _listed_mask(rows, k), rows


def test_prefix_orbits_key_only_children_whose_new_vertex_has_the_max_degree(monkeypatch):
    canonical_columns = search._canonical_columns
    keyed = 0

    def checked(rows, j):
        nonlocal keyed
        keyed += 1
        degrees = [row.bit_count() for row in rows]
        assert degrees[j - 1] == max(degrees), rows
        return canonical_columns(rows, j)

    monkeypatch.setattr(search, "_canonical_columns", checked)
    for k in range(0, 8):
        keyed = 0
        stats = SearchStats()
        _prefix_orbits(k, stats)
        assert keyed == stats.canonical_keyings, k
        assert keyed < stats.prefix_children or k < 2, k


def _count_least(rows, slot_cells, smaller, best, placed, placed_mask, found):
    # the branch and bound of graphs._place_least, which also counts in
    # found[0] the placements that reach the least columns so far; a slot
    # whose best column drops voids every placement counted before
    t = len(placed)
    n = len(slot_cells)
    if t == n:
        found[0] += 1
        return
    cols = {}
    for v in slot_cells[t]:
        if placed_mask >> v & 1 or smaller[v] & ~placed_mask:
            continue
        cols[v] = sum(1 << i for i, u in enumerate(placed) if rows[v] >> u & 1)
    low = min(cols.values())
    if low > best[t]:
        return
    if low < best[t]:
        best[t:] = [low] + [1 << (n + 1)] * (n - t - 1)
        found[0] = 0
    for v, col in cols.items():
        if col == low:
            placed.append(v)
            _count_least(rows, slot_cells, smaller, best, placed, placed_mask | 1 << v, found)
            placed.pop()


def _automorphisms(rows, k):
    """|Aut G| for the graph on k vertices held in rows.

    The vertex orders within the refinement cells that give the least
    columns are one coset of Aut G.  The labeler places each twin class in
    increasing order, so each placement it reaches stands for the prod |T|!
    orders of the twin classes T, and |Aut G| is their product with the
    placements counted.
    """
    if not k:
        return 1
    colors = _refine_colors(rows, k)
    slot_cells = [[v for v in range(k) if colors[v] == c] for c in sorted(colors)]
    smaller = _smaller_twins(rows, k)
    found = [0]
    _count_least(rows, slot_cells, smaller, [1 << (k + 1)] * k, [], 0, found)
    twin_classes = {b & -b: b | 1 << v for v, b in enumerate(smaller) if b}.values()
    return found[0] * math.prod(math.factorial(t.bit_count()) for t in twin_classes)


def test_prefix_orbit_sizes_are_the_orbit_stabilizer_counts():
    # |C| = k! / |Aut C| for every class, an oracle for the sizes that the
    # class growth derives by its sigma / mu count.  It shares the refinement
    # (_refine_colors) and the twin classes (_smaller_twins) with the labeler,
    # but no step of the growth and none of its size algebra
    for k in range(0, 10):
        for rows, size, _ in _prefix_orbits(k):
            assert size * _automorphisms(rows, k) == math.factorial(k), (k, rows)


def test_visited_is_the_orbit_stabilizer_sum_of_the_picks():
    # a second derivation of `visited` that needs none of the sigma / mu'
    # algebra: each class D on n - 1 vertices has (n - 1)! / |Aut D|
    # labeled members, each with as many picks for vertex n - 1 as D's
    # mask has set bits
    for n in range(1, 11):
        k = n - 1
        total = sum(
            math.factorial(k) // _automorphisms(rows, k) * mask.bit_count()
            for rows, _, mask in _prefix_orbits(k)
        )
        assert total == search_extremal(n, [2])[2].visited, n


def _two_pass_orbits(k, stats, picks, parent_keys):
    # the class growth with each level in two passes: list every child and
    # tally the invariants, then key the children whose invariant is shared.
    # With parent_keys, a child with mu = 1 has its parent in the invariant,
    # as in _prefix_orbits; a class keeps the mu of its first child
    orbits = [((), 1, 1)]
    for j in range(1, k + 1):
        children = []
        shared = {}
        for parent, child, count, mask, mu in search._children(orbits, j - 1, picks):
            invariant = (
                parent if parent_keys and mu == 1 else None,
                tuple(sorted(row.bit_count() for row in child)),
                mask.bit_count(),
            )
            shared[invariant] = shared.get(invariant, 0) + 1
            children.append((tuple(child), count, mask, mu, invariant))
        classes = {}
        for child, count, mask, mu, invariant in children:
            if shared[invariant] > 1:
                stats.canonical_keyings += 1
                key = (invariant, search._canonical_columns(child, j))
            else:
                key = (invariant, None)
            classes.setdefault(key, [child, 0, mask, mu])[1] += count
        stats.prefix_children += len(children)
        orbits = [
            (child, search._exact_share(j * sigma, mu), mask)
            for child, sigma, mask, mu in classes.values()
        ]
    return orbits


def test_prefix_orbits_equal_the_two_pass_growth():
    # under the same rule and keys: the same representatives, sizes, masks
    # and order, and the same children keyed, so the one pass labels exactly
    # the children whose key another child shares
    for k in range(0, 10):
        grown, reference = SearchStats(), SearchStats()
        orbits = _prefix_orbits(k, grown)
        assert orbits == _two_pass_orbits(k, reference, search._canonical_picks, True), k
        assert grown.prefix_children == reference.prefix_children, k
        assert grown.canonical_keyings == reference.canonical_keyings, k


def test_prefix_orbits_equal_the_degree_only_growth_by_certificate():
    # against the coarser degree-only rule without parent keys, its picks
    # from the reference, which shares no code with _canonical_picks: the
    # same classes, by certificate, with the same sizes and pick counts; the
    # finer deletion rule and the parent keys make no more children and
    # label no more of them
    def degree_only(rows, j, mask):
        return _reference_max_degree_picks(rows, j)

    def by_certificate(orbits):
        return {
            canonical_form(SmallGraph(k, rows)): (size, mask.bit_count())
            for rows, size, mask in orbits
        }

    for k in range(0, 10):
        grown, coarse = SearchStats(), SearchStats()
        orbits = _prefix_orbits(k, grown)
        reference = _two_pass_orbits(k, coarse, degree_only, False)
        assert by_certificate(orbits) == by_certificate(reference), k
        assert len(by_certificate(orbits)) == len(orbits), k
        assert grown.prefix_children <= coarse.prefix_children, k
        assert grown.canonical_keyings <= coarse.canonical_keyings, k


def test_prefix_orbits_hold_no_level_of_children():
    # a level that listed its children before keying them peaked at about
    # 2.5 times the classes it returns; the one pass stays under 2
    for j in range(9):  # the tables that outlive the call
        search._bit_lists(j), search._disjoint(j), search._at_least(j)
    gc.collect()
    tracemalloc.start()
    try:
        orbits = _prefix_orbits(9)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orbits) == 3727
    assert peak <= 2 * retained, (peak, retained)


def test_search_scores_every_class_on_n_minus_1_vertices():
    # completeness of the visit rule: up to isomorphism, the graphs that
    # the search's class walk hands _score_picks are the classes on n - 1
    # vertices, and for each class their weights times (n - 1) / mu' add up
    # to its size, mu' the number of vertices with the largest (degree,
    # neighbour-degree sum)
    for n in range(3, 9):
        tables = [(2, [d * d for d in range(n + 1)])]
        scored = {}
        for rows, deg, mask, weight, mu in search._walk_classes(n, search._canonical_picks):
            leaves, counted = search._score_picks(tables, {2: -1}, {2: []}, rows, deg, mask)
            assert leaves == len(_picks(_conflicts(rows, n - 1))) and not counted
            pairs = _degree_pairs(rows[: n - 1])
            assert pairs[n - 2] == max(pairs)
            assert mu == pairs.count(pairs[n - 2])
            cert = canonical_form(SmallGraph(n - 1, tuple(rows[: n - 1])))
            total, mu = scored.get(cert, (0, mu))
            scored[cert] = (total + weight, mu)

        orbits = _prefix_orbits(n - 1)
        classes = {canonical_form(SmallGraph(n - 1, rows)): size for rows, size, _ in orbits}
        assert scored.keys() == classes.keys(), n
        for cert, (total, mu) in scored.items():
            assert total * (n - 1) == classes[cert] * mu, (n, cert)


def test_class_walk_weights_count_the_graphs_on_n_minus_1_vertices():
    # the edge-decision tree is the reference: the weights handed out sum to
    # its count on n - 1 vertices, and each mask is the one of the graph
    # handed over
    for n in range(1, 9):
        total = 0
        for rows, deg, mask, weight, mu in search._walk_classes(n, search._twin_picks):
            assert mu == max(n - 1, 1)
            total += weight
            assert len(rows) == len(deg) == n and rows[n - 1] == 0
            assert deg == [row.bit_count() for row in rows]
            assert mask == _listed_mask(rows, n - 1)
        assert total == enumerate_c5_free(n - 1), n


def test_search_stats_count_the_orbit_walk():
    stats = SearchStats()
    search_extremal(7, [2], stats=stats)
    assert stats.labeled_prefixes == 806
    assert stats.orbit_representatives == 26
    assert stats.prefix_children == 47
    assert stats.canonical_keyings == 6
    assert stats.labeled_graphs == 316453
    assert 26 <= stats.leaves_walked < 316453
    assert stats.classes == 1 and stats.ties_relabeled >= 1
    assert min(stats.orbit_grouping_s, stats.walk_s, stats.merge_dedup_s) >= 0
    # a second call accumulates
    search_extremal(4, [2], stats=stats)
    assert stats.labeled_graphs == 316453 + 64
    assert stats.prefix_children == 47 + 3
    # at n = 8 only 10 of the 331 visits hold a leaf large enough to reach
    # the incumbent, which rises from 0 to ex_2 = 128 during the walk
    stats = SearchStats()
    search_extremal(8, [2], stats=stats)
    assert (stats.visits_scored, stats.visits_counted) == (331, 321)
    # over p = 1..8 at once, a few dozen visits per order at most list leaves
    listed, relabeled = [], []
    for n in range(2, 11):
        stats = SearchStats()
        search_extremal(n, range(1, 9), stats=stats)
        listed.append(stats.visits_scored - stats.visits_counted)
        relabeled.append(stats.ties_relabeled)
    assert listed == [1, 2, 4, 8, 11, 12, 15, 23, 32]
    assert relabeled == [8, 8, 8, 28, 22, 19, 14, 18, 14]


def test_twin_picks_stand_for_every_pick_class_by_class():
    # per isomorphism class of G[0..j-1] + S, the weights of the twin picks
    # add up to the number of picks S that land in it
    for n in range(0, 6):

        def leaf(rows):
            def key(s):
                grown = list(rows) + [s]
                for i in range(n):
                    grown[i] |= (s >> i & 1) << n
                return canonical_form(SmallGraph(n + 1, tuple(grown)))

            every, kept = {}, {}
            for s in _picks(_conflicts(rows, n)):
                cls = key(s)
                every[cls] = every.get(cls, 0) + 1
            for s, weight, _ in search._twin_picks(rows, n, _listed_mask(rows, n)):
                cls = key(s)
                kept[cls] = kept.get(cls, 0) + weight
            assert kept == every, rows

        enumerate_c5_free(n, leaf)


def _top_the_degrees(picks, rows, j):
    """Whether every (S, weight, mu) of picks is a reference twin pick after
    which vertex j has the maximum degree, with its weight, and mu at most
    the number of vertices that share that degree."""
    degree_only = {s: (weight, mu) for s, weight, mu in _reference_max_degree_picks(rows, j)}
    return all(
        s in degree_only and degree_only[s][0] == weight and mu <= degree_only[s][1]
        for s, weight, mu in picks
    )


def test_twin_picks_are_the_listed_picks_and_canonical_picks_top_the_degrees():
    # the references are the rules applied after the fact: every listed
    # pick that meets each twin class in its smallest members, and of
    # those, the ones after which the new vertex ends with the maximum
    # degree, in increasing order; on every labeled C5-free graph up to 5
    # vertices
    checked = 0
    for n in range(0, 6):

        def leaf(rows):
            nonlocal checked
            mask = _listed_mask(rows, n)
            assert search._twin_picks(rows, n, mask) == _reference_twin_picks(rows, n), rows
            assert _top_the_degrees(search._canonical_picks(rows, n, mask), rows, n), rows
            checked += 1

        enumerate_c5_free(n, leaf)
    assert checked == 1 + 1 + 2 + 8 + 64 + 806


def test_canonical_picks_are_the_twin_picks_that_top_the_pairs():
    # the reference builds each child and compares (degree, neighbour-degree
    # sum) over its vertices; on every labeled C5-free graph up to 5 vertices
    checked = ties = 0
    for n in range(0, 6):

        def leaf(rows):
            nonlocal checked, ties
            mask = _listed_mask(rows, n)
            picks = search._canonical_picks(rows, n, mask)
            assert picks == _reference_canonical_picks(rows, n), rows
            checked += 1
            ties += any(mu > 1 for _, _, mu in picks)

        enumerate_c5_free(n, leaf)
    assert checked == 1 + 1 + 2 + 8 + 64 + 806
    assert ties > 400  # graphs where some kept pick leaves j tied on the pair


def test_twin_and_max_degree_filters_match_the_references_on_random_graphs():
    # seeded C5-free graphs on 7..11 vertices, some with twins copied in
    rng = random.Random(29)
    kept = 0
    for n in range(7, 12):
        for _ in range(40):
            rows = _random_rows(rng, n, rng.uniform(0.1, 0.7), c5_free=True)
            for _ in range(rng.randrange(3)):  # make v a twin of u, not adjacent
                u, v = rng.sample(range(n), 2)
                rows[u] &= ~(1 << v)
                for w in range(n):
                    rows[w] = rows[w] & ~(1 << v) | (rows[w] >> u & 1) << v
                rows[v] = rows[u]
            if contains_cycle(SmallGraph(n, tuple(rows)), 5):
                continue
            mask = _pick_mask(rows, n)
            assert mask == _listed_mask(rows, n), rows
            assert search._twin_picks(rows, n, mask) == _reference_twin_picks(rows, n), rows
            top = search._canonical_picks(rows, n, mask)
            assert top == _reference_canonical_picks(rows, n), rows
            assert _top_the_degrees(top, rows, n), rows
            kept += len(top)
    assert kept > 50


def test_pick_masks_are_the_neighbourhoods_that_close_no_c5():
    # the oracle shares no code with the masks: bit S of a graph's mask is
    # set exactly when joining a new vertex to S closes no 5-cycle
    def closes(rows, n, s):
        grown = [row | (s >> i & 1) << n for i, row in enumerate(rows)] + [s]
        return contains_cycle(SmallGraph(n + 1, tuple(grown)), 5)

    checked = 0
    for n in range(0, 6):

        def leaf(rows):
            nonlocal checked
            mask = _pick_mask(rows, n)
            for s in range(1 << n):
                assert bool(mask >> s & 1) != closes(rows, n, s), (rows, s)
            checked += 1

        enumerate_c5_free(n, leaf)
    assert checked == 882
    rng = random.Random(41)
    for n in range(6, 12):
        for _ in range(6):
            rows = _random_rows(rng, n, rng.uniform(0.15, 0.6), c5_free=True)
            mask = _pick_mask(rows, n)
            sets = range(1 << n) if n <= 8 else rng.sample(range(1 << n), 300)
            for s in sets:
                assert bool(mask >> s & 1) != closes(rows, n, s), (rows, s)


def test_pick_count_matches_the_listed_picks():
    for n in range(0, 9):
        for rows, _, mask, _, _ in search._walk_classes(n, search._twin_picks):
            picks = _picks(_conflicts(rows, n - 1))
            assert search._members(mask) == sorted(picks), rows
            assert mask.bit_count() == len(picks), rows


def test_pick_mask_tables():
    for m in range(0, 7):
        sets = range(1 << m)
        disjoint = search._disjoint(m)
        at_least = search._at_least(m)
        assert len(disjoint) == 1 << m and len(at_least) == m + 2
        for x in sets:
            assert disjoint[x] == sum(1 << t for t in sets if not t & x), (m, x)
        for t in range(m + 2):
            assert at_least[t] == sum(1 << s for s in sets if s.bit_count() >= t), (m, t)


def test_an_inexact_orbit_division_raises_under_python_o():
    # the orbit-counting divisions are exact by argument; a remainder means
    # a bug, and the check that says so must survive assert stripping
    assert search._exact_share(12, 4) == 3
    code = (
        "from degpow.search import _exact_share\n"
        "assert False, 'asserts still run'\n"
        "try:\n"
        "    _exact_share(7, 2)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7 / 2 is not exact\n"


def test_search_values_are_the_book_graph_or_the_best_split():
    # the search starts every incumbent at 0 and uses no construction, so
    # the book graph K2 + empty(n - 2) and every K_{b,n-b}, all C5-free,
    # check it from outside: none beats ex_p, and from n = 5 on the better
    # of the book graph and the best split is ex_p
    for n in range(0, 11):
        found = search_extremal(n, range(1, 9))
        graphs = [build(CompleteBipartite(b, n - b)) for b in range(1, n // 2 + 1)]
        if n >= 2:
            graphs.append(build(JoinCliqueEmpty(2, n - 2)))
        for g in graphs:
            assert not contains_cycle(g, 5), to_graph6(g)
        for p in range(1, 9):
            assert found[p].maximizers, (n, p)
            values = [degree_power_sum(degree_sequence(g), p) for g in graphs]
            assert max(values, default=0) <= found[p].value, (n, p)
            if n >= 5:
                book = degree_profile(JoinCliqueEmpty(2, n - 2)).power_sum(p)
                assert found[p].value == max(book, best_biclique_split(n, p)[1]), (n, p)


def test_search_walks_vertex_n_minus_2_through_canonical_picks():
    stats = SearchStats()
    found = search_extremal(8, [2], stats=stats)
    assert found[2].visited == stats.labeled_graphs == 9369687
    # 87,056 below every pick of vertex 6, 45,708 below its twin picks,
    # 14,437 below those after which it has the maximum degree, and
    # 12,600 below those after which it has the largest (degree,
    # neighbour-degree sum), the picks of _canonical_picks
    assert stats.leaves_walked == 12600


def test_subtrees_keep_every_tie_with_the_final_incumbent():
    # started at the final value, the skip test may pass over lower leaves
    # only: the leaves that tie it still cover every maximizer class
    for n in range(1, 8):
        for p in range(1, 6):
            res = ex_p(n, p)
            best, ties = {p: res.value}, {p: []}
            tables = [(p, [d ** p for d in range(n + 1)])]
            for rows, deg, mask, _, _ in search._walk_classes(n, search._canonical_picks):
                search._score_picks(tables, best, ties, rows, deg, mask)
            assert best[p] == res.value, (n, p)
            found = {canonical_form(SmallGraph(n, rows)) for rows in ties[p]}
            assert found == {rec.canonical for rec in res.maximizers}, (n, p)


def test_size_filter_lists_every_tie_a_full_listing_finds():
    # a visit lists only the leaves from the least size whose bound reaches
    # the incumbent; started at the final value, that listing must find
    # every leaf that ties it, in the order that listing every leaf does
    ps = range(1, 9)
    for n in range(1, 10):
        values = {p: res.value for p, res in search_extremal(n, ps).items()}
        visits = list(search._walk_classes(n, search._canonical_picks))
        last = n - 1
        expected = {p: [] for p in ps}
        scores = {}  # sorted degrees -> e_p for each p
        for rows, deg, mask, _, _ in visits:
            for s in range(1 << last):
                if not mask >> s & 1:
                    continue
                degrees = [d + (s >> i & 1) for i, d in enumerate(deg[:last])] + [s.bit_count()]
                key = tuple(sorted(degrees))
                if key not in scores:
                    scores[key] = {p: sum(d ** p for d in key) for p in ps}
                for p in ps:
                    if scores[key][p] == values[p]:
                        leaf = [row | (s >> i & 1) << last for i, row in enumerate(rows[:last])]
                        expected[p].append(tuple(leaf + [s]))
        for p in ps:
            best, ties = {p: values[p]}, {p: []}
            tables = [(p, [d ** p for d in range(n + 1)])]
            for rows, deg, mask, _, _ in visits:
                search._score_picks(tables, best, ties, rows, deg, mask)
            assert best[p] == values[p] and ties[p] == expected[p], (n, p)
            assert expected[p], (n, p)


def test_skip_bound_is_the_join_of_the_last_vertex_to_every_other():
    # an incumbent one above the leaf that joins vertex n - 1 to all of G is
    # out of reach: the visit is counted, and best and ties stay as they were
    for n in range(2, 9):
        last = n - 1
        everything = (1 << last) - 1
        for p in (1, 2, 3):
            tables = [(p, [d ** p for d in range(n + 1)])]
            for rows, deg, mask, _, _ in search._walk_classes(n, search._canonical_picks):
                joined = sum((d + 1) ** p for d in deg[:last]) + last ** p
                best, ties = {p: joined + 1}, {p: [("kept",)]}
                leaves, counted = search._score_picks(tables, best, ties, rows, deg, mask)
                assert counted and leaves == mask.bit_count(), (n, p, rows)
                assert (best, ties) == ({p: joined + 1}, {p: [("kept",)]}), (n, p, rows)
                # at the join-all value itself only the join-all leaf can
                # reach it: the visit lists and scores it when it is a pick
                ties = {p: []}
                _, counted = search._score_picks(tables, {p: joined}, ties, rows, deg, mask)
                assert counted == (not mask >> everything & 1), (n, p, rows)
                leaf = tuple(row | 1 << last for row in rows[:last]) + (everything,)
                assert ties[p] == ([] if counted else [leaf]), (n, p, rows)


def test_search_n9_splits_at_seven_prefix_vertices():
    # K_{4,5} wins for p <= 2 and the book graph, an edge joined to 7
    # independent vertices (degrees 8, 8 and seven 2s), from p = 3 on
    stats = SearchStats()
    found = search_extremal(9, range(1, 9), stats=stats)
    values = [40, 180, 1080, 8304, 65760, 524736, 4195200, 33556224]
    for p, value in zip(range(1, 9), values):
        res = found[p]
        assert (res.value, res.visited) == (value, 362314673), p
        [rec] = res.maximizers
        if p <= 2:
            assert (rec.canonical, rec.biclique) == (b"H?B~vrw", (4, 5)), p
        else:
            assert (rec.canonical, rec.biclique) == (b"H???F~~", None), p
            assert value == 2 * 8 ** p + 7 * 2 ** p
    assert stats.labeled_prefixes == 316453  # the C5-free graphs on 7 vertices
    assert stats.orbit_representatives == 251
    assert stats.prefix_children == 470
    assert stats.canonical_keyings == 172


def test_search_n10_row():
    # K_{5,5} wins for p <= 2 and the book graph from p = 3 on
    stats = SearchStats()
    found = search_extremal(10, range(1, 9), force=True, stats=stats)
    book = canonical_form(build(JoinCliqueEmpty(2, 8)))
    for p in range(1, 9):
        res = found[p]
        [rec] = res.maximizers
        assert res.visited == 18414750022, p
        if p <= 2:
            assert res.value == [50, 250][p - 1], p
            assert rec.biclique == (5, 5), p
        else:
            assert res.value == 2 * 9 ** p + 8 * 2 ** p, p
            assert rec.canonical == book, p
    # the 929 classes on 8 vertices, grown from 1,723 children
    assert stats.orbit_representatives == 929
    assert stats.prefix_children == 1723
    assert stats.canonical_keyings == 786


def test_search_n11_at_the_cap():
    # the largest order the search runs without force: K_{5,6} for p <= 2,
    # the book graph K2 + empty(9) from p = 3 on
    found = search_extremal(11, range(1, 9))
    book = canonical_form(build(JoinCliqueEmpty(2, 9)))
    for p in range(1, 9):
        res = found[p]
        [rec] = res.maximizers
        assert res.visited == 1239155328857, p
        if p <= 2:
            assert res.value == [60, 330][p - 1], p
            assert rec.biclique == (5, 6), p
        else:
            assert res.value == 2 * 10 ** p + 9 * 2 ** p, p
            assert rec.canonical == book, p


def test_walks_leave_no_reference_cycles():
    # a walk that made a self-calling closure per node would leave tens of
    # thousands of objects for the cycle collector after one n = 8 search
    search_extremal(5, [2])
    gc.collect()
    gc.disable()
    try:
        search_extremal(8, [2])
        sweep_observations(7)
        assert gc.collect() < 1000
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# capacity gate


def test_capacity_gate():
    with pytest.raises(CapacityError):
        enumerate_c5_free(10)
    with pytest.raises(CapacityError):
        search_extremal(12, [2])
    with pytest.raises(CapacityError):
        sweep_neighborhood_validity(10)
    # force is honored (exercised well below the cap to stay fast)
    assert enumerate_c5_free(4, force=True) == 64


# ---------------------------------------------------------------------------
# maximizer classification


def test_classify_k4_not_biclique():
    report = classify_maximizers(ex_p(4, 2))
    assert report["ex_p"] == "36"
    assert report["all_biclique"] is False
    assert "not complete bipartite" in report["note"]
    [entry] = report["maximizer_classes"]
    assert entry["graph6"] == "C~"
    assert entry["biclique"] is None
    assert entry["max_degree_ratio"] == "3/4"


def test_classify_all_biclique_note():
    # at n=6, p=1 the unique maximum-edge graph is K_{3,3} among others?
    res = ex_p(6, 1)
    report = classify_maximizers(res)
    assert report["ex_p"] == "18"
    if report["all_biclique"]:
        assert report["note"] == "all maximizer classes are complete bipartite"
    for entry in report["maximizer_classes"]:
        assert from_graph6(entry["graph6"]).edge_count() == entry["edge_count"] == 9


def test_classification_report_lists_each_exponent_once():
    report = search.classification_report([4, 5], [3, 1, 3, 1])
    assert [(row["n"], row["p"]) for row in report] == [(4, 3), (4, 1), (5, 3), (5, 1)]


def test_classification_report_checks_the_cap_before_searching(monkeypatch):
    calls = 0
    search_extremal = search.search_extremal

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search_extremal(*args, **kwargs)

    monkeypatch.setattr(search, "search_extremal", counted)
    with pytest.raises(CapacityError):
        search.classification_report(range(4, 13), [1, 2, 3])
    assert calls == 0
    search.classification_report([5, 4], [2])
    assert calls == 2


def test_max_degree_ratio_exact():
    from fractions import Fraction

    res = ex_p(4, 2)
    assert max_degree_ratio(res) == [Fraction(3, 4)]
    res5 = ex_p(5, 2)
    assert max_degree_ratio(res5) == [Fraction(4, 5), Fraction(4, 5)]


def test_max_degree_ratio_is_undefined_at_order_zero():
    # the empty graph is a maximizer at n = 0, and its Delta/n is 0/0
    res = ex_p(0, 2)
    assert len(res.maximizers) == 1
    with pytest.raises(ValueError, match="undefined at n = 0"):
        max_degree_ratio(res)
    assert classify_maximizers(res)["maximizer_classes"][0]["max_degree_ratio"] is None


def test_classification_report_writes_no_ratio_only_at_order_zero():
    ratios = [
        [entry["max_degree_ratio"] for entry in row["maximizer_classes"]]
        for row in search.classification_report(range(0, 4), [1])
    ]
    assert ratios == [[None], ["0/1"], ["1/2"], ["2/3"]]


# ---------------------------------------------------------------------------
# neighborhood decomposition


def test_decomposition_two_triangles_at_shared_vertex():
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    rep = neighborhood_decomposition(g, 0)
    assert rep.valid
    assert rep.isolated == 0
    assert rep.edge_pairs == 2
    assert rep.other_orders == ()


def test_decomposition_star_center_and_leaf():
    g = from_edges(6, [(0, i) for i in range(1, 6)])
    center = neighborhood_decomposition(g, 0)
    assert (center.isolated, center.edge_pairs, center.other_orders) == (5, 0, ())
    leaf = neighborhood_decomposition(g, 3)
    assert (leaf.isolated, leaf.edge_pairs) == (1, 0)


def test_decomposition_petersen_any_hub():
    # girth 5: every neighborhood is independent
    for u in range(10):
        rep = neighborhood_decomposition(PETERSEN, u)
        assert rep.valid
        assert (rep.isolated, rep.edge_pairs, rep.other_orders) == (3, 0, ())


def test_decomposition_hub_construction():
    g = build(GPrime(12, 6))
    degs = degree_sequence(g)
    hubs = [u for u in range(12) if degs[u] == 6]
    shapes = sorted(
        (rep.isolated, rep.edge_pairs)
        for rep in map(lambda u: neighborhood_decomposition(g, u), hubs)
    )
    # one true hub sees four pendants plus the triangle edge; the other
    # max-degree vertices sit in the bipartite core and see independence
    assert shapes == [(4, 1)] + [(6, 0)] * 4
    assert all(neighborhood_decomposition(g, u).valid for u in range(12))


def test_decomposition_invalid_is_reachable():
    # hub joined onto a 4-vertex path: the neighborhood contains that path
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    rep = neighborhood_decomposition(g, 4)
    assert not rep.valid
    assert rep.other_orders == (4,)


def test_decomposition_vertex_range():
    with pytest.raises(ValueError):
        neighborhood_decomposition(PETERSEN, 10)
    with pytest.raises(ValueError):
        neighborhood_decomposition(PETERSEN, -1)


# ---------------------------------------------------------------------------
# attachment observations


def test_observations_on_hub_constructions():
    g = build(GPrime(12, 6))
    degs = degree_sequence(g)
    hub = next(
        u for u in range(12)
        if degs[u] == 6 and neighborhood_decomposition(g, u).edge_pairs
    )
    rep = validate_observations(g, hub)
    assert rep.passed
    assert rep.failures == ()
    # every core vertex on the far side touches all four pendant gadgets
    assert len(rep.flags) == 5
    assert all("4 pendant gadgets" in f for f in rep.flags)

    h = build(GStar(14, 7))
    degs = degree_sequence(h)
    hubs = [u for u in range(14) if degs[u] == max(degs)]
    seen_any = False
    for u in hubs:
        shape = neighborhood_decomposition(h, u)
        if not shape.edge_pairs and not shape.other_orders:
            continue  # independent neighborhood, outside the contract
        seen_any = True
        assert validate_observations(h, u).passed
    assert seen_any


def test_observations_preconditions():
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ValueError, match="no edge"):
        validate_observations(c6, 0)  # independent neighborhood

    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ValueError, match="5-cycle"):
        validate_observations(c5, 0)

    g = build(GPrime(12, 6))
    degs = degree_sequence(g)
    low = degs.index(2)
    with pytest.raises(ValueError, match="maximum degree"):
        validate_observations(g, low)

    with pytest.raises(ValueError, match="out of range"):
        validate_observations(g, 12)


def test_observations_triangle_gadget_attachment_branches():
    # gluing an outside vertex to both ends of one triangle gadget only
    # closes a 4-cycle; the check accepts it
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (5, 1), (5, 2)])
    assert not contains_cycle(g, 5)
    rep = validate_observations(g, 0)
    assert rep.passed
    assert rep.checked_outside == 1

    # straddling a triangle gadget and a pendant closes a genuine 5-cycle,
    # so the C5-freeness precondition already refuses the graph
    h = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 1), (4, 3)])
    assert contains_cycle(h, 5)
    with pytest.raises(ValueError, match="5-cycle"):
        validate_observations(h, 0)


# ---------------------------------------------------------------------------
# sweeps


def _max_degree_hubs(g):
    """(u, degrees, neighborhood-has-an-edge) for every max-degree hub of a
    graph with at least one edge."""
    degs = degree_sequence(g)
    dmax = max(degs, default=0)
    if dmax == 0:
        return
    for u in range(g.order):
        if degs[u] == dmax:
            nbrs = set(g.neighbors(u))
            yield u, degs, any(set(g.neighbors(v)) & nbrs for v in nbrs)


def test_sweep_validity_agrees_with_public_api():
    for n in range(0, 7):
        sweep = sweep_neighborhood_validity(n)
        assert sweep.violations == ()
        pairs = 0
        for g in collect_c5_free(n):
            degs = degree_sequence(g)
            for u in range(n):
                if degs[u] >= 4:
                    pairs += 1
                    assert neighborhood_decomposition(g, u).valid
        assert (sweep.graphs, sweep.pairs_checked) == (enumerate_c5_free(n), pairs), n


def test_sweep_observations_agrees_with_public_api():
    for n in range(0, 7):
        sweep = sweep_observations(n)
        assert sweep.violations == ()
        pairs = 0
        for g in collect_c5_free(n):
            for u, _, has_edge in _max_degree_hubs(g):
                if has_edge:
                    pairs += 1
                    assert validate_observations(g, u).passed
        assert (sweep.graphs, sweep.pairs_checked) == (enumerate_c5_free(n), pairs), n


def test_sweep_bipartite_completion_agrees_with_public_api():
    for n in range(0, 7):
        sweep = sweep_bipartite_completion(n)
        assert sweep.violations == ()
        pairs = 0
        for g in collect_c5_free(n):
            for u, degs, has_edge in _max_degree_hubs(g):
                if not has_edge:
                    pairs += 1
                    after = degree_sequence(bipartite_completion(g, u))
                    assert all(a >= d for a, d in zip(after, degs))
        assert (sweep.graphs, sweep.pairs_checked) == (enumerate_c5_free(n), pairs), n


# ---------------------------------------------------------------------------
# leaf-check kernels against brute-force references


def _reference_observation_rows(rows, n, u):
    """The attachment observations, one outside vertex and one pair of
    outside vertices at a time."""
    nmask = rows[u]
    comps = search._components_of(rows, nmask)
    failures, flags = [], []
    outside = [w for w in range(n) if w != u and not (nmask >> w) & 1]
    for w in outside:
        tw = rows[w] & nmask
        if not tw:
            continue
        touched = [c for c in comps if c & tw]
        if all(c.bit_count() == 1 for c in touched):
            if len(touched) >= 2:
                flags.append(f"w={w} attaches to {len(touched)} pendant gadgets")
            continue
        if len(touched) == 1:
            comp = touched[0]
            hits = tw.bit_count()
            if comp.bit_count() == 2 or hits == 1:
                continue
            failures.append(f"w={w} hits {hits} vertices of one order-{comp.bit_count()} gadget")
        else:
            failures.append(f"w={w} attaches to {len(touched)} gadgets, not all pendants")
    edge_checks = 0
    for i, w1 in enumerate(outside):
        for w2 in outside[i + 1:]:
            if not (rows[w1] >> w2) & 1:
                continue
            edge_checks += 1
            t1, t2 = rows[w1] & nmask, rows[w2] & nmask
            if not t1 or not t2 or t1 == t2 and t1.bit_count() == 1:
                continue
            failures.append(f"edge {w1}-{w2} outside the hub has attachments {t1:b} vs {t2:b}")
    return failures, flags, len(outside), edge_checks


def _reference_decomposition_rows(rows, u):
    """(components of order >= 4 that are not stars, isolated, edge pairs,
    other orders, component masks) of G[N(u)]."""
    comps = search._components_of(rows, rows[u])
    non_stars = isolated = edge_pairs = 0
    other = []
    for comp in comps:
        size = comp.bit_count()
        if size == 1:
            isolated += 1
        elif size == 2:
            edge_pairs += 1
        else:
            other.append(size)
            if size >= 4 and not search._is_star(rows, comp, size):
                non_stars += 1
    return non_stars, isolated, edge_pairs, other, comps


def _reference_validity(rows, deg, n, violations):
    pairs = 0
    for u in range(n):
        if deg[u] >= 4:
            pairs += 1
            for _ in range(_reference_decomposition_rows(rows, u)[0]):
                violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u}")
    return pairs


def _has_edge_among(rows, mask):
    return any(rows[v] & mask for v in range(len(rows)) if (mask >> v) & 1)


def _reference_observations(rows, deg, n, violations, observed):
    """observed[u]: _reference_observation_rows at hub u."""
    dmax = max(deg, default=0)
    pairs = 0
    for u in range(n):
        if deg[u] != dmax or not _has_edge_among(rows, rows[u]):
            continue
        pairs += 1
        for msg in observed[u][0]:
            violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u}: {msg}")
    return pairs


def _reference_completion(rows, deg, n, violations):
    dmax = max(deg, default=0)
    if dmax == 0:
        return 0
    pairs = 0
    for u in range(n):
        nmask = rows[u]
        if deg[u] != dmax or _has_edge_among(rows, nmask):
            continue
        pairs += 1
        for v in range(n):
            after = n - dmax if (nmask >> v) & 1 else dmax
            if deg[v] > after:
                violations.append(f"{to_graph6(SmallGraph(n, tuple(rows)))} u={u} v={v}")
    return pairs


def _check_kernels_against_references(rows, n):
    """Assert that the observation kernel at every hub and the three leaf
    checks report what their references do on one graph; return which of
    them reported something."""
    observed = [_reference_observation_rows(rows, n, u) for u in range(n)]
    for u, expected in enumerate(observed):
        assert search._validate_observation_rows(rows, n, u) == expected, (rows, u)
    deg = [row.bit_count() for row in rows]
    found = {
        "failures": any(failures for failures, _, _, _ in observed),
        "flags": any(flags for _, flags, _, _ in observed),
    }
    for kernel, reference in (
        (search._check_validity, _reference_validity),
        (search._check_observations,
         lambda *args: _reference_observations(*args, observed)),
        (search._check_completion, _reference_completion),
    ):
        got, expected = [], []
        pairs = kernel(rows, deg, n, got)
        assert (pairs, got) == (reference(rows, deg, n, expected), expected), (
            kernel.__name__, rows)
        found[kernel.__name__] = bool(expected)
    return found


def test_leaf_checks_match_their_references_on_every_small_graph():
    # every labeled graph on up to 6 vertices, 5-cycles and all, so that
    # each failure branch of the kernels runs
    seen = {}
    for n in range(0, 7):
        for g in all_graphs(n):
            for name, hit in _check_kernels_against_references(g.rows, n).items():
                seen[name] = seen.get(name, 0) + hit
    # graphs on which each reference reported something.  Completion never
    # does: with N(u) independent, a neighbour of u has all its neighbours
    # among the n - dmax vertices outside N(u), and any other vertex has at
    # most dmax
    assert seen == {
        "failures": 19026, "flags": 10493,
        "_check_validity": 11075, "_check_observations": 12180, "_check_completion": 0,
    }


def _random_rows(rng, n, density, c5_free):
    """A seeded random graph on n vertices; with c5_free, its edges are
    added in random order and those that would close a 5-cycle skipped."""
    rows = [0] * n
    for a, b in rng.sample(list(itertools.combinations(range(n), 2)), n * (n - 1) // 2):
        if rng.random() >= density or c5_free and search._creates_c5(rows, a, b):
            continue
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


def test_leaf_checks_match_their_references_on_random_graphs():
    rng = random.Random(17)
    seen = {}
    for n in range(7, 13):
        for i in range(200):
            rows = _random_rows(rng, n, rng.uniform(0.1, 0.9), c5_free=i % 2)
            for name, hit in _check_kernels_against_references(rows, n).items():
                seen[name] = seen.get(name, 0) + hit
            g = SmallGraph(n, tuple(rows))
            u = rng.randrange(n)
            rep = neighborhood_decomposition(g, u)
            _, isolated, edge_pairs, other, comps = _reference_decomposition_rows(rows, u)
            assert (rep.isolated, rep.edge_pairs, rep.other_orders, rep.component_masks) == (
                isolated, edge_pairs, tuple(sorted(other)), tuple(comps))
    assert seen.pop("_check_completion") == 0
    assert all(seen.values()), seen


SWEEPS = (sweep_neighborhood_validity, sweep_observations, sweep_bipartite_completion)


def test_sweeps_without_a_prefix_split_count_every_graph():
    # below n = 4 the prefix has at most one vertex and one orbit
    for n in range(0, 4):
        for sweep_fn in SWEEPS:
            assert sweep_fn(n).graphs == enumerate_c5_free(n), (sweep_fn.__name__, n)


def test_sweeps_clean_at_order_six():
    for sweep_fn in SWEEPS:
        result = sweep_fn(6)
        assert result.graphs == 13922
        assert result.violations == ()
        assert result.pairs_checked > 0


def test_observation_and_completion_sweeps_split_the_max_degree_hubs():
    # a max-degree hub of a graph with an edge has a neighbourhood that
    # either holds an edge (observations) or is independent (completion)
    hubs = []
    for n in range(0, 8):
        total = 0

        def count(rows):
            nonlocal total
            degrees = [row.bit_count() for row in rows]
            dmax = max(degrees, default=0)
            if dmax:
                total += degrees.count(dmax)

        enumerate_c5_free(n, count)
        split = sweep_observations(n).pairs_checked + sweep_bipartite_completion(n).pairs_checked
        assert split == total, n
        hubs.append(total)
    assert hubs == [0, 0, 2, 12, 116, 1370, 23376, 520695]


def test_sweep_counts_at_order_seven():
    # graph and pair counts of the full labeled walk at n = 7
    results = [sweep_fn(7) for sweep_fn in SWEEPS]
    assert [r.pairs_checked for r in results] == [218533, 314482, 206213]
    assert {r.graphs for r in results} == {316453}


def test_sweep_counts_at_order_eight():
    # the labeled walk's counts at n = 8, so the class walk meets them on
    # every run, not only when it finds a violation
    results = [sweep_fn(8) for sweep_fn in SWEEPS]
    assert [r.pairs_checked for r in results] == [8857640, 9498384, 6250056]
    assert {r.graphs for r in results} == {9369687}
    assert all(r.violations == () for r in results)


def _labeled_reference(n, violations_of):
    """The violations of a full labeled walk, counted per isomorphism class."""
    totals = {}

    def leaf(rows):
        g = SmallGraph(n, tuple(rows))
        found = len(violations_of(g))
        if found:
            cert = canonical_form(g)
            totals[cert] = totals.get(cert, 0) + found

    enumerate_c5_free(n, leaf)
    return totals


def _listed_counts(violations):
    """A sweep's "<graph6>[ <hub> ...] x<count>" entries, counted per
    isomorphism class of the graph they name."""
    totals = {}
    for entry in violations:
        message, count = entry.rsplit(" x", 1)
        cert = canonical_form(from_graph6(message.split(" ", 1)[0]))
        totals[cert] = totals.get(cert, 0) + int(count)
    return totals


def _listed_total(violations):
    return sum(int(entry.rsplit(" x", 1)[1]) for entry in violations)


def _never_a_star(rows, comp, size):
    return False


def _non_star_violations(g):
    # with _is_star failing, every component of order >= 4 in the
    # neighborhood of a hub of degree >= 4 is a violation
    out = []
    for u in range(g.order):
        if g.degree(u) < 4:
            continue
        nbrs = set(g.neighbors(u))
        nbhd = nx.Graph([(a, b) for a in nbrs for b in g.neighbors(a) if b in nbrs])
        big = sum(1 for comp in nx.connected_components(nbhd) if len(comp) > 3)
        out += [f"{to_graph6(g)} u={u}"] * big
    return out


def _every_hub_fails(rows, n, u):
    return ["stub"], [], 0, 0


def _every_hub_violations(g):
    return [f"{to_graph6(g)} u={u}: stub" for u, _, has_edge in _max_degree_hubs(g) if has_edge]


def _dominating_hubs_fail(rows, order, u):
    return (["stub"] if rows[u].bit_count() == order - 1 else []), [], 0, 0


def _dominating_hub_violations(g):
    # a dominating hub has maximum degree; it needs one edge among the rest
    rows, n = g.rows, g.order
    return [
        f"{to_graph6(g)} u={u}: stub"
        for u, row in enumerate(rows)
        if row.bit_count() == n - 1 and any(rows[v] & row for v in range(n) if v != u)
    ]


def _flag_every_leaf(check):
    def flagged(rows, deg, order, violations):
        violations.append(to_graph6(SmallGraph(order, tuple(rows))))
        return check(rows, deg, order, violations)

    return flagged


def test_sweep_violation_counts_are_the_labeled_counts_class_by_class(monkeypatch):
    # below n = 3 the prefixes are empty (k = 0).  Each stub fails some
    # hubs, and a check that flags every leaf on top of a real one flags
    # each class once per labeled member and leaves the sweep's counts alone
    checks = (
        (search._check_validity, sweep_neighborhood_validity),
        (search._check_observations, sweep_observations),
        (search._check_completion, sweep_bipartite_completion),
    )
    stubs = (
        ("_is_star", _never_a_star, sweep_neighborhood_validity, _non_star_violations),
        ("_validate_observation_rows", _every_hub_fails, sweep_observations, _every_hub_violations),
        ("_validate_observation_rows", _dominating_hubs_fail, sweep_observations,
         _dominating_hub_violations),
    )
    for n in range(0, 7):
        clean = {sweep_fn: sweep_fn(n) for _, sweep_fn in checks}
        every_leaf = _labeled_reference(n, lambda g: [to_graph6(g)])
        for check, sweep_fn in checks:
            swept = search._sweep(n, _flag_every_leaf(check), False)
            assert _listed_counts(swept.violations) == every_leaf, (sweep_fn.__name__, n)
            assert (swept.graphs, swept.pairs_checked) == (
                clean[sweep_fn].graphs, clean[sweep_fn].pairs_checked
            ), (sweep_fn.__name__, n)
        for name, stub, sweep_fn, violations_of in stubs:
            with monkeypatch.context() as patched:
                patched.setattr(search, name, stub)
                swept = sweep_fn(n)
            expected = _labeled_reference(n, violations_of)
            assert expected or n < 6, (name, n)
            assert _listed_counts(swept.violations) == expected, (name, n)
            assert (swept.graphs, swept.pairs_checked) == (
                clean[sweep_fn].graphs, clean[sweep_fn].pairs_checked
            ), (name, n)


def test_stubbed_sweeps_at_order_eight_list_by_the_class_walk(monkeypatch):
    def no_labeled_walk(n, leaf):
        raise AssertionError("a sweep ran the labeled walk")

    monkeypatch.setattr(search, "_run_tree", no_labeled_walk)
    monkeypatch.setattr(search, "_validate_observation_rows", _dominating_hubs_fail)
    swept = sweep_observations(8)
    assert len(swept.violations) == 497
    assert _listed_total(swept.violations) == 33040
    # failing every hub fails each (graph, hub) pair the clean sweep checks
    monkeypatch.setattr(search, "_validate_observation_rows", _every_hub_fails)
    swept = sweep_observations(8)
    assert _listed_total(swept.violations) == 9498384
    assert swept.pairs_checked == 9498384


def test_a_check_that_is_not_relabeling_invariant_counts_its_walked_leaves():
    # flagging the graphs that hold the edge 0-1 depends on the labels: the
    # class walk weighs the flags of the leaves it walks, which differ from
    # those of the labeled walk
    def edge_01(rows, deg, order, violations):
        if rows[0] & 2:
            violations.append(to_graph6(SmallGraph(order, tuple(rows))))
        return 0

    swept = search._sweep(5, edge_01, False)
    assert _listed_total(swept.violations) == 69
    labeled = _labeled_reference(5, lambda g: [g] if g.has_edge(0, 1) else [])
    assert sum(labeled.values()) == 361
