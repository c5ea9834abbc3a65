"""Graph core: bitmask representation, cycle/path detection, canonical form,
biclique recognition, graph6 codec.  Randomized checks are seeded and every
detector is cross-checked against a structure-free oracle or networkx."""

import gc
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx
import pytest

from degpow import asymptotics, claims, constructions, search
from degpow.graphs import (
    MAX_ORDER,
    CapacityError,
    SmallGraph,
    _count_c5,
    _refine_colors,
    _smaller_twins,
    canonical_form,
    canonical_relabel,
    contains_cycle,
    contains_path_order,
    degree_power_sum,
    degree_sequence,
    from_edges,
    from_graph6,
    induced_subgraph,
    is_complete_bipartite,
    naive_contains_cycle,
    to_graph6,
)


def random_graph(rng, n, prob=0.5):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < prob]
    return from_edges(n, edges)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def permuted(rng, g):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# representation basics


def test_from_edges_roundtrip():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 1)])  # duplicate collapses
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert degree_sequence(g) == [1, 2, 2, 1]


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(-1, [])
    with pytest.raises(CapacityError):
        from_edges(MAX_ORDER + 1, [])


def test_order_64_supported():
    g = from_edges(64, [(0, 63)])
    assert g.degree(63) == 1


def test_handshake_on_random_graphs():
    rng = random.Random(421)
    for _ in range(500):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        assert sum(degree_sequence(g)) == 2 * g.edge_count()


def test_degree_power_sum_exact_big_integers():
    degrees = [10 ** 6, 10 ** 6, 3]
    assert degree_power_sum(degrees, 8) == 2 * 10 ** 48 + 3 ** 8
    assert degree_power_sum(degrees, 1) == sum(degrees)
    with pytest.raises(ValueError):
        degree_power_sum(degrees, 0)


_KBIP = asymptotics.family_of("kbip", a="3/5")
EXPONENT_ENTRIES = {
    "degree_power_sum": lambda p: degree_power_sum([1, 2], p),
    "DegreeProfile.power_sum": lambda p: constructions.DegreeProfile(((2, 1),)).power_sum(p),
    "ep_turan2_closed_form": lambda p: constructions.ep_turan2_closed_form(6, p),
    "ParametricFamily.power_sum_at": lambda p: _KBIP.power_sum_at(10, p),
    "expand_ep": lambda p: asymptotics.expand_ep(_KBIP, p),
    "f_value": lambda p: asymptotics.f_value(Fraction(3, 5), Fraction(1, 5), p),
    "verify_f_positive": lambda p: asymptotics.verify_f_positive(p, Fraction(1, 4)),
    "split_constant": lambda p: asymptotics.split_constant(p),
    "best_biclique_split": lambda p: asymptotics.best_biclique_split(10, p),
    "search_extremal": lambda p: search.search_extremal(5, [p]),
    "run_claim": lambda p: claims.run_claim("turan-closed-form", p=p),
}


@pytest.mark.parametrize("p", [0, -1, True, False, 2.0, 2.5])
@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
def test_every_exponent_entry_takes_only_an_integer_of_at_least_one(entry, p):
    with pytest.raises(ValueError, match=f"exponent p must be an integer >= 1, got {p}$"):
        EXPONENT_ENTRIES[entry](p)


def test_induced_subgraph():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edges() == [(0, 1), (1, 2)]
    # relabeling follows the selection order
    sub = induced_subgraph(g, [2, 1, 0])
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])
    with pytest.raises(ValueError):
        induced_subgraph(g, [7])


# ---------------------------------------------------------------------------
# cycle detection


PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


@pytest.mark.parametrize(
    "g,expectations",
    [
        (PETERSEN, {3: False, 4: False, 5: True, 6: True}),
        (from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), {3: False, 4: False, 5: False, 6: True}),
        (from_edges(5, list(combinations(range(5), 2))), {3: True, 4: True, 5: True}),
        (from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)]), {3: False, 4: True, 5: False, 6: True}),
    ],
)
def test_contains_cycle_known_graphs(g, expectations):
    for k, expected in expectations.items():
        assert contains_cycle(g, k) is expected


def test_contains_cycle_rejects_short_lengths():
    g = from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        contains_cycle(g, 2)
    with pytest.raises(ValueError):
        naive_contains_cycle(g, 2)


def test_contains_cycle_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(220):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.15, 0.75))
        for k in (3, 4, 5, 6):
            assert contains_cycle(g, k) == naive_contains_cycle(g, k), (to_graph6(g), k)


def brute_c5_count(g):
    """5-cycles as vertex sequences that start at their smallest vertex and
    run in one of the two directions."""
    rows = g.rows
    count = 0
    for comb in combinations(range(g.order), 5):
        for a, b, c, d in permutations(comb[1:]):
            if a < d and all((rows[x] >> y) & 1 for x, y in
                             ((comb[0], a), (a, b), (b, c), (c, d), (d, comb[0]))):
                count += 1
    return count


def test_c5_trace_formula_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(5, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        assert _count_c5(g.rows) == brute_c5_count(g), to_graph6(g)
        assert contains_cycle(g, 5) == naive_contains_cycle(g, 5), to_graph6(g)


def test_c5_trace_formula_finds_a_lone_c5_in_sparse_graphs():
    # one 5-cycle among a few random edges, pendant paths and isolated
    # vertices, where most closed 5-walks are not cycles
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(5, 10)
        cycle = rng.sample(range(n), 5)
        edges = [(cycle[t], cycle[(t + 1) % 5]) for t in range(5)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n // 2))]
        g = from_edges(n, edges)
        assert naive_contains_cycle(g, 5)
        assert contains_cycle(g, 5), to_graph6(g)
        assert _count_c5(g.rows) == brute_c5_count(g) >= 1, to_graph6(g)


def test_contains_cycle_matches_networkx_cycle_space():
    # networkx simple_cycles with length_bound enumerates all cycle lengths
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 8), 0.4)
        lengths = {len(c) for c in nx.simple_cycles(to_nx(g), length_bound=8)}
        for k in range(3, 9):
            assert contains_cycle(g, k) == (k in lengths)


def test_contains_path_order():
    path5 = from_edges(5, [(i, i + 1) for i in range(4)])
    for k in range(1, 6):
        assert contains_path_order(path5, k)
    assert not contains_path_order(path5, 6)
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    assert contains_path_order(star, 3)
    assert not contains_path_order(star, 4)
    with pytest.raises(ValueError):
        contains_path_order(star, 0)


def test_path_containment_is_monotone():
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        witnessed = [contains_path_order(g, k) for k in range(1, g.order + 1)]
        # once a path order is missing, all longer ones must be missing
        assert witnessed == sorted(witnessed, reverse=True)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(31337)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert canonical_form(g) == canonical_form(permuted(rng, g))


def test_canonical_form_counts_isomorphism_classes():
    # unlabeled graph counts: 11 at n=4, 34 at n=5, 156 at n=6
    for n, classes in [(4, 11), (5, 34), (6, 156)]:
        all_edges = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
            seen.add(canonical_form(from_edges(n, edges)))
        assert len(seen) == classes


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = random.Random(2024)
    pairs = 0
    while pairs < 150:
        n = rng.randint(3, 7)
        a = random_graph(rng, n, 0.5)
        if rng.random() < 0.5:
            b = permuted(rng, a)
        else:
            b = random_graph(rng, n, 0.5)
        same = canonical_form(a) == canonical_form(b)
        assert same == nx.is_isomorphic(to_nx(a), to_nx(b))
        pairs += 1


def test_canonical_relabel_is_idempotent_and_isomorphic():
    rng = random.Random(8)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        cg = canonical_relabel(g)
        assert sorted(degree_sequence(cg)) == sorted(degree_sequence(g))
        assert cg.edge_count() == g.edge_count()
        assert canonical_relabel(cg) == cg


def test_canonical_form_empty_graph():
    assert canonical_form(SmallGraph(0, ())) == b"?"


def reference_relabel(g):
    """canonical_relabel without the twin rule: branch and bound over every
    vertex order that follows the refinement cells, as the labeler did
    before twins were pruned."""
    n, rows = g.order, g.rows
    colors = _refine_colors(rows, n)
    slots = [[v for v in range(n) if colors[v] == c] for c in sorted(colors)]
    best = [1 << (n + 1)] * n
    found = []

    def assign(placed):
        t = len(placed)
        if t == n:
            if not found:
                found.append(placed[:])
            return
        for v in slots[t]:
            if v in placed:
                continue
            col = sum(1 << i for i, u in enumerate(placed) if rows[v] >> u & 1)
            if col > best[t]:
                continue
            if col < best[t]:
                best[t:] = [col] + [1 << (n + 1)] * (n - t - 1)
                found.clear()
            assign(placed + [v])

    assign([])
    pos = {v: i for i, v in enumerate(found[0])} if n else {}
    return from_edges(n, [(pos[u], pos[v]) for u, v in g.edges()])


def book(n):
    """K2 joined to n - 2 isolated vertices: the two hubs are true twins and
    the pages false twins."""
    return from_edges(n, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, n)])


def complete_bipartite(a, b):
    return from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_twin_pruning_keeps_the_canonical_relabeling():
    rng = random.Random(4321)
    graphs = [random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.8)) for _ in range(1000)]
    # twin-heavy graphs: the reference walks every order of their large
    # cells, which costs seconds at n = 9, so these stop at n = 7
    graphs += [from_edges(7, []), from_edges(7, combinations(range(7), 2)),
               complete_bipartite(3, 4), complete_bipartite(2, 5), book(7)]
    for g in graphs:
        assert canonical_relabel(g) == reference_relabel(g), to_graph6(g)


def pairwise_smaller_twins(rows, n):
    """The definition, pair by pair: u < v are twins when
    N(u) - {v} = N(v) - {u}."""
    smaller = [0] * n
    for u, v in combinations(range(n), 2):
        if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
            smaller[v] |= 1 << u
    return smaller


def test_smaller_twins_match_the_pairwise_definition():
    # every labeled graph up to 6 vertices, then seeded random graphs up to
    # 12 vertices with twins copied in, adjacent and not
    for n in range(0, 7):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            rows = from_edges(n, [e for i, e in enumerate(all_edges) if mask >> i & 1]).rows
            assert _smaller_twins(rows, n) == pairwise_smaller_twins(rows, n), (n, rows)
    rng = random.Random(61)
    twins = 0
    for _ in range(400):
        n = rng.randint(7, 12)
        rows = list(random_graph(rng, n, rng.uniform(0.1, 0.9)).rows)
        for _ in range(rng.randrange(4)):  # make v a twin of u, adjacent or not
            u, v = rng.sample(range(n), 2)
            joined = rng.random() < 0.5
            for w in range(n):
                rows[w] = rows[w] & ~(1 << v) | (rows[w] >> u & 1) << v
            rows[v] = rows[u] & ~(1 << v)
            rows[u] = rows[u] & ~(1 << v) | joined << v
            rows[v] |= joined << u
        assert _smaller_twins(rows, n) == pairwise_smaller_twins(rows, n), (n, rows)
        twins += any(_smaller_twins(rows, n))
    assert twins > 200


def test_canonical_relabel_leaves_no_reference_cycles():
    # a self-calling closure in the labeler would leave one cycle per call
    rng = random.Random(99)
    graphs = [random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.8)) for _ in range(1000)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            canonical_relabel(g)
        assert gc.collect() < 100
    finally:
        gc.enable()


@pytest.mark.parametrize("g", [
    complete_bipartite(4, 4),
    complete_bipartite(6, 6),
    complete_bipartite(3, 8),
    complete_bipartite(20, 20),
    from_edges(12, []),
    from_edges(12, combinations(range(12), 2)),
    from_edges(MAX_ORDER, []),
    book(11),
    book(30),
], ids=["K4,4", "K6,6", "K3,8", "K20,20", "empty12", "K12", "empty64", "book11", "book30"])
def test_canonical_relabel_of_twin_heavy_graphs_is_fast(g):
    rng = random.Random(g.order)
    start = time.perf_counter()
    cg = canonical_relabel(g)
    assert canonical_relabel(permuted(rng, g)) == cg
    assert time.perf_counter() - start < 0.5
    assert sorted(degree_sequence(cg)) == sorted(degree_sequence(g))
    assert canonical_relabel(cg) == cg


# ---------------------------------------------------------------------------
# complete bipartite recognition


def brute_is_complete_bipartite(g):
    n = g.order
    if n < 2:
        return None
    for r in range(1, n):
        for left in combinations(range(n), r):
            right = [v for v in range(n) if v not in left]
            expected = {(min(x, y), max(x, y)) for x in left for y in right}
            if set(g.edges()) == expected:
                a, b = len(left), len(right)
                return (a, b) if a <= b else (b, a)
    return None


def test_is_complete_bipartite_grid():
    for a in range(1, 7):
        for b in range(a, 7):
            g = from_edges(a + b, [(x, a + y) for x in range(a) for y in range(b)])
            assert is_complete_bipartite(g) == (a, b)


def test_is_complete_bipartite_negative_cases():
    assert is_complete_bipartite(from_edges(4, list(combinations(range(4), 2)))) is None
    assert is_complete_bipartite(from_edges(6, [(i, (i + 1) % 6) for i in range(6)])) is None
    assert is_complete_bipartite(from_edges(1, [])) is None
    assert is_complete_bipartite(from_edges(3, [(0, 1)])) is None  # isolated vertex
    # two disjoint edges: bipartite, complete on neither side
    assert is_complete_bipartite(from_edges(4, [(0, 1), (2, 3)])) is None


def test_is_complete_bipartite_exhaustive_small():
    for n in range(2, 6):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
            g = from_edges(n, edges)
            assert is_complete_bipartite(g) == brute_is_complete_bipartite(g)


# ---------------------------------------------------------------------------
# graph6 codec


def test_graph6_known_values():
    # K4 and the 5-cycle, values as produced by standard tools
    assert to_graph6(from_edges(4, list(combinations(range(4), 2)))) == "C~"
    assert to_graph6(from_edges(5, [(i, (i + 1) % 5) for i in range(5)])) == "Dhc"


def test_graph6_roundtrip_exhaustive_small():
    for n in range(0, 5):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
            g = from_edges(n, edges)
            assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_large_orders():
    rng = random.Random(63)
    for n in (62, 63, 64):
        for _ in range(5):
            g = random_graph(rng, n, 0.3)
            text = to_graph6(g)
            if n >= 63:
                assert text.startswith("~")  # long size form
            assert from_graph6(text) == g


def test_graph6_matches_networkx():
    rng = random.Random(606)
    for _ in range(60):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, 0.5)
        mine = to_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), nodes=range(n), header=False).decode().strip()
        assert mine == theirs
        assert from_graph6(theirs) == g


def test_graph6_header_tolerated():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_error_cases():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("C~extra")
    with pytest.raises(ValueError):
        from_graph6("C")  # truncated body
    with pytest.raises(ValueError):
        from_graph6("B" + chr(30))  # character below the graph6 range
    with pytest.raises(CapacityError):
        from_graph6("~" + chr(63) + chr(64) + chr(64))  # order 65
    # nonzero padding bits: order-2 graph has one data bit, five pad bits
    with pytest.raises(ValueError):
        from_graph6("A" + chr(63 + 1))


def test_graph6_capacity_error_order():
    big = ((1 << 12) - 1)
    text = "~" + chr(((big >> 12) & 63) + 63) + chr(((big >> 6) & 63) + 63) + chr((big & 63) + 63)
    with pytest.raises(CapacityError):
        from_graph6(text)
