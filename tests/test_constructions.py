"""Constructions: degree profiles, explicit builds, profile/build agreement,
C5-freeness of the rewired hub families, and the completion operation."""

from collections import Counter
from fractions import Fraction

import pytest

from degpow.constructions import (
    CompleteBipartite,
    DegreeProfile,
    GPrime,
    GStar,
    HubAttachment,
    JoinCliqueEmpty,
    Turan,
    bipartite_completion,
    build,
    degree_profile,
    ep_turan2_closed_form,
    hub_with_components,
    format_spec,
    parse_spec,
    spec_order,
)
from degpow.graphs import (
    CapacityError,
    SmallGraph,
    contains_cycle,
    degree_sequence,
    from_edges,
    is_complete_bipartite,
)


def degree_counter(g):
    return Counter(degree_sequence(g))


# ---------------------------------------------------------------------------
# profiles


def test_degree_profile_validation():
    with pytest.raises(ValueError):
        DegreeProfile(((0, 3),))
    with pytest.raises(ValueError):
        DegreeProfile(((2, 5),))  # degree 5 impossible on 2 vertices
    with pytest.raises(ValueError):
        DegreeProfile(((3, 1),))  # odd degree sum
    prof = DegreeProfile(((2, 3), (2, 1)))
    assert prof.order == 4
    assert prof.power_sum(1) == 8
    assert prof.power_sum(2) == 20
    assert prof.counter() == {3: 2, 1: 2}


@pytest.mark.parametrize(
    "spec,expected",
    [
        (Turan(5, 2), [3, 3, 2, 2, 2]),
        (Turan(6, 3), [4] * 6),
        (Turan(7, 1), [0] * 7),
        (Turan(4, 4), [3, 3, 3, 3]),
        (CompleteBipartite(2, 3), [3, 3, 2, 2, 2]),
        (JoinCliqueEmpty(2, 3), [4, 4, 2, 2, 2]),
        (JoinCliqueEmpty(1, 4), [4, 1, 1, 1, 1]),
        (HubAttachment(3, 2), [7, 2, 2, 2, 2, 1, 1, 1]),
        (GPrime(12, 6), [6, 6, 6, 6, 6, 4, 4, 4, 4, 4, 2, 2]),
        (GStar(12, 6), [6, 6, 6, 6, 4, 4, 4, 4, 3, 3, 2, 2]),
    ],
)
def test_profiles_match_known_degree_lists(spec, expected):
    prof = degree_profile(spec)
    got = sorted((d for c, d in prof.pairs for _ in range(c)), reverse=True)
    assert got == sorted(expected, reverse=True)
    assert prof.order == spec_order(spec) == len(expected)


def test_spec_order_is_each_family_size_on_a_grid():
    # spec_order reads the profile's order; the sizes stated per family
    # are the independent side
    sizes = [
        *((Turan(n, r), n) for n in range(1, 21) for r in range(1, n + 1)),
        *((CompleteBipartite(a, b), a + b) for a in range(1, 16) for b in range(1, 16)),
        *((JoinCliqueEmpty(k, m), k + m) for k in range(1, 16) for m in range(16)),
        *((HubAttachment(p, t), 1 + p + 2 * t) for p in range(16) for t in range(16)),
        *((GPrime(n, d), n) for n in range(4, 31) for d in range(2, n - 1)),
        *((GStar(n, d), n) for n in range(6, 31) for d in range(2, n - 3)),
    ]
    assert len(sizes) == 1634
    for spec, size in sizes:
        assert spec_order(spec) == size, spec
        assert parse_spec(format_spec(spec)) == spec


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        Turan(0, 1)
    with pytest.raises(ValueError):
        Turan(3, 4)
    with pytest.raises(ValueError):
        CompleteBipartite(0, 3)
    with pytest.raises(ValueError):
        JoinCliqueEmpty(0, 5)
    with pytest.raises(ValueError):
        HubAttachment(-1, 0)
    with pytest.raises(ValueError):
        GPrime(5, 1)  # hub degree below 2
    with pytest.raises(ValueError):
        GPrime(5, 4)  # no room outside the closed neighborhood
    with pytest.raises(ValueError):
        GStar(6, 3)  # outside part smaller than 3


def test_gstar_smallest_legal_order():
    # n - d - 1 >= 3 admits (7, 3); the build must deliver it
    g = build(GStar(7, 3))
    assert g.order == 7
    assert not contains_cycle(g, 5)
    assert degree_counter(g) == Counter(degree_profile(GStar(7, 3)).counter())


# ---------------------------------------------------------------------------
# builds agree with profiles


ALL_SPECS = [
    Turan(1, 1),
    Turan(9, 2),
    Turan(10, 3),
    CompleteBipartite(1, 1),
    CompleteBipartite(4, 7),
    JoinCliqueEmpty(2, 6),
    JoinCliqueEmpty(3, 0),
    HubAttachment(0, 0),
    HubAttachment(5, 3),
    GPrime(10, 5),
    GPrime(20, 10),
    GPrime(17, 9),
    GStar(20, 10),
    GStar(14, 7),
    GStar(15, 6),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_build_realizes_profile(spec):
    g = build(spec)
    assert g.order == spec_order(spec)
    assert degree_counter(g) == Counter(degree_profile(spec).counter())


def test_build_capacity_gate():
    with pytest.raises(CapacityError):
        build(Turan(65, 2))
    assert build(Turan(64, 2)).order == 64


def test_turan_is_complete_multipartite():
    g = build(Turan(7, 3))  # parts 3, 2, 2
    assert g.edge_count() == 3 * 2 + 3 * 2 + 2 * 2
    assert is_complete_bipartite(build(Turan(9, 2))) == (4, 5)


def test_join_clique_empty_small_cases():
    # K2 + empty is the book graph: C5-free for k <= 2
    g = build(JoinCliqueEmpty(2, 5))
    assert not contains_cycle(g, 5)
    assert degree_counter(g) == {6: 2, 2: 5}
    # K1 + empty is a star
    assert is_complete_bipartite(build(JoinCliqueEmpty(1, 6))) == (1, 6)


def test_hub_attachment_shape():
    g = build(HubAttachment(2, 3))
    hub_degree = 2 + 2 * 3
    assert g.degree(0) == hub_degree
    assert not contains_cycle(g, 5)
    assert contains_cycle(g, 3)


def test_hub_attachment_keeps_its_edge_list_layout():
    # pendants at 1..p, then the triangle pairs, each joined to the hub
    for p in range(11):
        for t in range(11):
            edges = [(0, 1 + i) for i in range(p)]
            for j in range(t):
                x = 1 + p + 2 * j
                edges += [(0, x), (0, x + 1), (x, x + 1)]
            assert build(HubAttachment(p, t)) == from_edges(1 + p + 2 * t, edges), (p, t)


def test_hub_with_components_extension():
    # a path component P3 in the neighborhood is P4-free and keeps C5 out
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k1 = from_edges(1, [])
    g = hub_with_components([p3, k1, k1])
    assert g.degree(0) == 5
    assert not contains_cycle(g, 5)
    assert sorted(degree_sequence(g)) == [1, 1, 2, 2, 3, 5]


@pytest.mark.parametrize("n", range(8, 41))
def test_gprime_gstar_c5_free_all_legal_orders(n):
    for d in range(2, n):
        if n - d - 1 >= 1:
            gp = build(GPrime(n, d))
            assert not contains_cycle(gp, 5), ("gprime", n, d)
        if n - d - 1 >= 3:
            gs = build(GStar(n, d))
            assert not contains_cycle(gs, 5), ("gstar", n, d)


def test_power_sums_match_displayed_formulas():
    # e_p(G') = (an)^p + 2*2^p + (an-2)((1-a)n)^p + ((1-a)n-1)(an-2)^p
    # e_p(G*) = ((1-a)n-2)(an)^p + (an-2)((1-a)n-2)^p + 2((1-a)n-3)^p + 2*2^p
    for n in range(8, 201, 8):
        d = n // 2
        for p in range(1, 9):
            ep_prime = degree_profile(GPrime(n, d)).power_sum(p)
            expected = d ** p + 2 * 2 ** p + (d - 2) * (n - d) ** p + (n - d - 1) * (d - 2) ** p
            assert ep_prime == expected
            ep_star = degree_profile(GStar(n, d)).power_sum(p)
            expected = (
                (n - d - 2) * d ** p
                + (d - 2) * (n - d - 2) ** p
                + 2 * (n - d - 3) ** p
                + 2 * 2 ** p
            )
            assert ep_star == expected


def test_acceptance_scale_profile_stays_cheap():
    prof = degree_profile(GPrime(10 ** 4, 5 * 10 ** 3))
    assert prof.order == 10 ** 4
    assert prof.counter() == {5000: 4999, 2: 2, 4998: 4999}
    assert prof.power_sum(1) == 4999 * 5000 + 4 + 4999 * 4998


# ---------------------------------------------------------------------------
# turan closed form


def test_ep_turan2_closed_form_matches_profile():
    for n in range(2, 60):
        for p in range(1, 6):
            assert ep_turan2_closed_form(n, p) == degree_profile(Turan(n, 2)).power_sum(p)
    assert ep_turan2_closed_form(1, 3) == 0
    assert ep_turan2_closed_form(0, 2) == 0
    with pytest.raises(ValueError):
        ep_turan2_closed_form(5, 0)
    with pytest.raises(ValueError):
        ep_turan2_closed_form(-1, 2)


# ---------------------------------------------------------------------------
# bipartite completion


def test_bipartite_completion_star():
    star = build(CompleteBipartite(1, 5))
    center = max(range(6), key=star.degree)
    h = bipartite_completion(star, center)
    assert h == star  # already complete bipartite at the split


def test_bipartite_completion_adds_missing_cross_edges():
    # path a-u-b: completion at u joins {u's non-neighbors + u} to N(u)
    g = from_edges(4, [(0, 1), (1, 2)])
    h = bipartite_completion(g, 1)
    assert is_complete_bipartite(h) == (2, 2)
    assert all(h.degree(v) >= g.degree(v) for v in range(4))


def test_bipartite_completion_validation():
    g = from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        bipartite_completion(g, 2)  # isolated
    with pytest.raises(ValueError):
        bipartite_completion(g, 5)


def edge_list_completion(g, u):
    # the edge-list construction the row-built completion replaced
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} out of range for order {g.order}")
    nu = g.rows[u]
    if nu == 0:
        raise ValueError(f"vertex {u} is isolated, the split would be degenerate")
    side_x = [v for v in range(g.order) if not (nu >> v) & 1]
    side_y = [v for v in range(g.order) if (nu >> v) & 1]
    return from_edges(g.order, [(x, y) for x in side_x for y in side_y])


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_bipartite_completion_matches_the_edge_list_reference_on_every_small_graph():
    from itertools import combinations as comb

    for n in range(7):
        pairs = list(comb(range(n), 2))
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for i, (x, y) in enumerate(pairs):
                if mask >> i & 1:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
            g = SmallGraph(n, tuple(rows))
            for u in range(-1, n + 1):
                got = outcome(bipartite_completion, g, u)
                assert got == outcome(edge_list_completion, g, u), (n, mask, u)


def test_bipartite_completion_monotone_when_neighborhood_independent():
    # the degree guarantee needs u of max degree and N(u) independent
    from itertools import combinations as comb

    for n in range(2, 6):
        all_edges = list(comb(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
            g = from_edges(n, edges)
            if contains_cycle(g, 5) if n >= 5 else False:
                continue
            degs = degree_sequence(g)
            dmax = max(degs)
            if dmax == 0:
                continue
            for u in range(n):
                if degs[u] != dmax:
                    continue
                if any(g.has_edge(x, y) for x, y in comb(list(g.neighbors(u)), 2)):
                    continue
                h = bipartite_completion(g, u)
                assert all(h.degree(v) >= g.degree(v) for v in range(n)), (edges, u)


# ---------------------------------------------------------------------------
# spec strings


def test_parse_spec_roundtrip():
    for text, expected in [
        ("turan:n=20,r=2", Turan(20, 2)),
        ("kbip:a=3,b=4", CompleteBipartite(3, 4)),
        ("joinke:k=2,m=10", JoinCliqueEmpty(2, 10)),
        ("hub:p=3,t=2", HubAttachment(3, 2)),
        ("gprime:n=20,d=10", GPrime(20, 10)),
        ("gstar:n=14,d=7", GStar(14, 7)),
    ]:
        spec = parse_spec(text)
        assert spec == expected
        assert format_spec(spec) == text


def test_parse_spec_errors():
    for bad in [
        "nope:n=3",
        "turan",
        "turan:n=20",
        "turan:n=20,r=2,r=2",
        "turan:n=20,q=2",
        "turan:n=x,r=2",
        "gprime:n=20,d=10,extra=1",
    ]:
        with pytest.raises(ValueError):
            parse_spec(bad)
