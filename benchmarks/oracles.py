"""Reference values computed without the program's search, algebra or optimizer.

Every check function takes a program output and returns a list of problems;
an empty list means the output agrees with the oracle.  The oracles are:

- the networkx graph atlas (every graph up to 7 vertices, one per class),
  filtered by a brute-force 5-cycle test written here, and extended one
  vertex at a time to n = 8;
- the frozen n <= 8 fixture in tests/fixtures, recorded by a separate naive
  enumeration over all labeled graphs, as a cross-check of the above;
- closed forms and exact integer grids for the split constant c(p);
- brute force over b for the best biclique split;
- Lagrange interpolation of ParametricFamily.power_sum_at, which evaluates
  a family's degree power sum directly, for every polynomial coefficient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import networkx as nx
import numpy as np

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "ex1_c5_small.json"

# float tolerance on the split constant: the program's float64 golden-section
# search places the argmax within about 4e-9 of the true value
C_TOL = 1e-8


# ---------------------------------------------------------------------------
# graphs


def decode(graph6: str) -> nx.Graph:
    return nx.from_graph6_bytes(graph6.encode("ascii"))


def has_c5(g: nx.Graph) -> bool:
    """Brute force: some 5 vertices in some cyclic order close a 5-cycle."""
    adj = {v: set(g[v]) for v in g}
    for five in combinations(sorted(adj), 5):
        first = five[0]
        for rest in permutations(five[1:]):
            if rest[0] > rest[-1]:
                continue  # each cycle once per direction
            cycle = (first,) + rest
            if all(cycle[i + 1] in adj[cycle[i]] for i in range(4)) and first in adj[cycle[4]]:
                return True
    return False


def power_sum(g: nx.Graph, p: int) -> int:
    return sum(d ** p for _, d in g.degree())


def biclique_of(g: nx.Graph):
    """(a, b) with a <= b if g is isomorphic to K_{a,b}, else None."""
    n = g.number_of_nodes()
    for a in range(1, n // 2 + 1):
        if g.number_of_edges() == a * (n - a) and nx.is_isomorphic(g, nx.complete_bipartite_graph(a, n - a)):
            return (a, n - a)
    return None


def automorphisms(g: nx.Graph) -> int:
    """|Aut(g)| by backtracking: map vertices in order, each to an unused
    vertex of the same degree that keeps adjacency to those already mapped."""
    nodes = list(g)
    pos = {v: i for i, v in enumerate(nodes)}
    adj = [sum(1 << pos[u] for u in g[v]) for v in nodes]
    deg = [a.bit_count() for a in adj]
    n = len(nodes)
    image = [0] * n

    def extend(i: int, used: int) -> int:
        if i == n:
            return 1
        total = 0
        for j in range(n):
            if used >> j & 1 or deg[j] != deg[i]:
                continue
            if all((adj[i] >> k & 1) == (adj[j] >> image[k] & 1) for k in range(i)):
                image[i] = j
                total += extend(i + 1, used | 1 << j)
        return total

    return extend(0, 0)


def _hub_pairs(g: nx.Graph) -> tuple[int, int, int]:
    """Per-graph pair counts of the three validator sweeps: hubs of degree
    >= 4; max-degree hubs whose neighborhood holds an edge; max-degree hubs
    (degree > 0) whose neighborhood is independent."""
    deg = dict(g.degree())
    dmax = max(deg.values(), default=0)
    validity = sum(1 for v in g if deg[v] >= 4)
    observations = completion = 0
    if dmax > 0:
        for u in g:
            if deg[u] != dmax:
                continue
            if g.subgraph(g[u]).number_of_edges():
                observations += 1
            else:
                completion += 1
    return validity, observations, completion


def closes_c5(g: nx.Graph, nbrs: set) -> bool:
    """Whether a new vertex joined to nbrs closes a 5-cycle: some a, d in
    nbrs are the ends of a path a-b-c-d in g."""
    for a in nbrs:
        for b in g[a]:
            for c in g[b]:
                if c != a and any(d not in (a, b) for d in nbrs & set(g[c])):
                    return True
    return False


def _invariant(g: nx.Graph) -> tuple:
    deg = dict(g.degree())
    tri = nx.triangles(g)
    return tuple(sorted((deg[v], tri[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))


def extend_classes(classes: list[nx.Graph], n: int) -> list[nx.Graph]:
    """C5-free classes on n vertices from those on n - 1.

    Deleting a vertex keeps a graph C5-free, so every class on n vertices is
    a class on n - 1 plus a vertex joined to some subset of it."""
    buckets: dict[tuple, list[nx.Graph]] = {}
    for base in classes:
        for mask in range(1 << (n - 1)):
            nbrs = {v for v in range(n - 1) if mask >> v & 1}
            if closes_c5(base, nbrs):
                continue
            g = base.copy()
            g.add_node(n - 1)
            g.add_edges_from((n - 1, v) for v in nbrs)
            bucket = buckets.setdefault(_invariant(g), [])
            if not any(nx.is_isomorphic(g, h) for h in bucket):
                bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


class ClassOracle:
    """ex_p, maximizer classes, labeled counts and sweep pair counts for
    every order up to n_max: the networkx atlas up to 7 vertices, one-vertex
    extensions beyond."""

    def __init__(self, n_max: int):
        self.classes: dict[int, list[nx.Graph]] = {n: [] for n in range(min(n_max, 7) + 1)}
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n <= n_max and not has_c5(g):
                self.classes[n].append(g)
        for n in range(8, n_max + 1):
            self.classes[n] = extend_classes(self.classes[n - 1], n)
        self.labeled: dict[int, int] = {}
        self.pairs: dict[int, tuple[int, int, int]] = {}
        for n, gs in self.classes.items():
            total = 0
            pairs = [0, 0, 0]
            for g in gs:
                copies = math.factorial(n) // automorphisms(g)
                total += copies
                for i, k in enumerate(_hub_pairs(g)):
                    pairs[i] += copies * k
            self.labeled[n] = total
            self.pairs[n] = tuple(pairs)

    def ex_p(self, n: int, p: int) -> tuple[int, list[nx.Graph]]:
        best = max(power_sum(g, p) for g in self.classes[n])
        return best, [g for g in self.classes[n] if power_sum(g, p) == best]


@lru_cache(maxsize=None)
def classes_up_to(n_max: int) -> ClassOracle:
    return ClassOracle(n_max)


def fixture_problems(oracle: ClassOracle, n: int) -> list[str]:
    """The derived values against the frozen fixture, which was recorded by a
    separate naive enumeration over all labeled graphs."""
    fixture = load_fixture()
    problems = []
    if oracle.labeled[n] != fixture["labeled_counts"][str(n)]:
        problems.append(f"oracle: labeled count {oracle.labeled[n]} at n={n}, fixture "
                        f"{fixture['labeled_counts'][str(n)]}")
    for p in (1, 2, 3):
        if oracle.ex_p(n, p)[0] != fixture[f"ex_{p}"][str(n)]:
            problems.append(f"oracle: ex_{p}({n}) is {oracle.ex_p(n, p)[0]}, fixture {fixture[f'ex_{p}'][str(n)]}")
    return problems


def load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def check_maximizer(entry: dict, n: int, p: int, value: int) -> list[str]:
    """One reported maximizer: C5-free, scores the value, fields agree."""
    g = decode(entry["graph6"])
    where = f"n={n} p={p} {entry['graph6']}"
    problems = []
    if g.number_of_nodes() != n:
        problems.append(f"{where}: has {g.number_of_nodes()} vertices")
    if has_c5(g):
        problems.append(f"{where}: contains a 5-cycle")
    if power_sum(g, p) != value:
        problems.append(f"{where}: e_p is {power_sum(g, p)}, not {value}")
    if entry["max_degree"] != max((d for _, d in g.degree()), default=0):
        problems.append(f"{where}: wrong max_degree {entry['max_degree']}")
    bic = biclique_of(g)
    if (list(bic) if bic else None) != entry["biclique"]:
        problems.append(f"{where}: biclique {entry['biclique']}, expected {bic}")
    if "edge_count" in entry and entry["edge_count"] != g.number_of_edges():
        problems.append(f"{where}: wrong edge_count {entry['edge_count']}")
    return problems


def match_classes(entries: list[dict], expected: list[nx.Graph], where: str) -> list[str]:
    """The reported classes are pairwise non-isomorphic and biject onto the
    expected ones."""
    got = [decode(e["graph6"]) for e in entries]
    problems = []
    for i, j in combinations(range(len(got)), 2):
        if nx.is_isomorphic(got[i], got[j]):
            problems.append(f"{where}: classes {entries[i]['graph6']} and {entries[j]['graph6']} are isomorphic")
    if len(got) != len(expected):
        problems.append(f"{where}: {len(got)} maximizer classes, expected {len(expected)}")
    unmatched = list(expected)
    for e, g in zip(entries, got):
        hit = next((h for h in unmatched if nx.is_isomorphic(g, h)), None)
        if hit is None:
            problems.append(f"{where}: class {e['graph6']} is not an expected maximizer")
        else:
            unmatched.remove(hit)
    return problems


def check_search_payload(payload: dict, oracle: ClassOracle, n: int, p: int) -> list[str]:
    """`degpow search` output: value, labeled count and maximizer classes."""
    value, classes = oracle.ex_p(n, p)
    visited = oracle.labeled[n]
    where = f"search n={n} p={p}"
    problems = []
    if (payload["n"], payload["p"]) != (n, p):
        problems.append(f"{where}: payload is for n={payload['n']} p={payload['p']}")
    if int(payload["ex_p"]) != value:
        problems.append(f"{where}: ex_p {payload['ex_p']}, expected {value}")
    if payload["visited"] != visited:
        problems.append(f"{where}: visited {payload['visited']}, expected {visited}")
    if not payload["maximizers"]:
        problems.append(f"{where}: no maximizers reported")
    for entry in payload["maximizers"]:
        problems += check_maximizer(entry, n, p, value)
    return problems + match_classes(payload["maximizers"], classes, where)


def check_sweep_payload(payload: dict, atlas: ClassOracle, n_values, p_values) -> list[str]:
    """`degpow sweep` output: every (n, p) row against the atlas."""
    problems = []
    rows = {(r["n"], r["p"]): r for r in payload["report"]}
    if list(payload["p_values"]) != list(p_values):
        problems.append(f"sweep: p_values {payload['p_values']}, expected {list(p_values)}")
    if len(rows) != len(payload["report"]) or set(rows) != {(n, p) for n in n_values for p in p_values}:
        problems.append("sweep: report rows do not cover the (n, p) grid exactly once")
    for (n, p), row in sorted(rows.items()):
        where = f"sweep n={n} p={p}"
        value, classes = atlas.ex_p(n, p)
        if int(row["ex_p"]) != value:
            problems.append(f"{where}: ex_p {row['ex_p']}, expected {value}")
            continue
        if row["visited"] != atlas.labeled[n]:
            problems.append(f"{where}: visited {row['visited']}, expected {atlas.labeled[n]}")
        for entry in row["maximizer_classes"]:
            problems += check_maximizer(entry, n, p, value)
            if entry["max_degree_ratio"] != f"{entry['max_degree']}/{n}":
                problems.append(f"{where}: bad max_degree_ratio {entry['max_degree_ratio']}")
        problems += match_classes(row["maximizer_classes"], classes, where)
        all_bic = bool(row["maximizer_classes"]) and all(e["biclique"] for e in row["maximizer_classes"])
        if row["all_biclique"] != all_bic:
            problems.append(f"{where}: all_biclique {row['all_biclique']}, expected {all_bic}")
    return problems


SWEEP_KINDS = ("validity", "observations", "completion")


def check_sweep_result(result: dict, kind: str, n: int, atlas: ClassOracle) -> list[str]:
    """A validator sweep: no violations, every labeled graph seen once, and
    the (graph, hub) pair count the atlas predicts."""
    where = f"sweep_{kind} n={n}"
    problems = []
    if result["violations"]:
        problems.append(f"{where}: {len(result['violations'])} violations, first {result['violations'][0]}")
    if result["graphs"] != atlas.labeled[n]:
        problems.append(f"{where}: {result['graphs']} graphs, expected {atlas.labeled[n]}")
    pairs = atlas.pairs[n][SWEEP_KINDS.index(kind)]
    if result["pairs_checked"] != pairs:
        problems.append(f"{where}: {result['pairs_checked']} pairs, expected {pairs}")
    return problems


# ---------------------------------------------------------------------------
# the split constant c(p)


def split_value(b: int, n: int, p: int) -> int:
    return b * (n - b) ** p + (n - b) * b ** p


def c_closed_form(p: int):
    """argmax of x(1-x)^p + x^p(1-x) on [1/2, 1] for p <= 5.

    With t = x(1-x) the objective is t * ((1-x)^(p-1) + x^(p-1)): t for
    p = 2, t(1-2t) for p = 3 (both maximal at t = 1/4, x = 1/2), t(1-3t)
    for p = 4 (t = 1/6) and t(1-4t+2t^2) for p = 5 (1 - 8t + 6t^2 = 0).
    """
    if p <= 3:
        return 0.5
    t = {4: 1 / 6, 5: (4 - math.sqrt(10)) / 6}.get(p)
    if t is None:
        return None
    return (1 + math.sqrt(1 - 4 * t)) / 2


@lru_cache(maxsize=None)
def c_bracket(p: int, levels: int = 4, points: int = 1024) -> tuple[Fraction, Fraction]:
    """Exact bracket around the argmax on [1/2, 1] by nested rational grids.

    Each level evaluates the objective exactly on `points` equal steps of the
    current bracket and keeps the two steps either side of the best point.
    """
    lo, hi = Fraction(1, 2), Fraction(1)
    for _ in range(levels):
        step = (hi - lo) / points
        xs = [lo + k * step for k in range(points + 1)]
        vals = [x * (1 - x) ** p + x ** p * (1 - x) for x in xs]
        k = max(range(points + 1), key=vals.__getitem__)
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, points)]
    return lo, hi


def check_c(c: float, p: int, where: str) -> list[str]:
    closed = c_closed_form(p)
    if closed is not None:
        if abs(c - closed) > C_TOL:
            return [f"{where}: c={c!r} is {abs(c - closed):.3g} from the closed form {closed!r}"]
        return []
    lo, hi = c_bracket(p)
    if not float(lo) - C_TOL <= c <= float(hi) + C_TOL:
        return [f"{where}: c={c!r} outside the exact bracket [{float(lo)!r}, {float(hi)!r}]"]
    return []


@lru_cache(maxsize=None)
def best_split(n: int, p: int) -> int:
    """max over every b in 1..n-1 of b(n-b)^p + (n-b)b^p, exact.

    A float64 pass over all b keeps those within 1e-9 of the float maximum
    (its rounding error is below 1e-13 relative); they are then scored in
    exact integers.
    """
    b = np.arange(1, n, dtype=np.float64)
    vals = b * (n - b) ** p + (n - b) * b ** p
    keep = np.nonzero(vals >= vals.max() * (1 - 1e-9))[0] + 1
    return max(split_value(int(k), n, p) for k in keep)


def check_split(b: int, value: int, n: int, p: int, where: str) -> list[str]:
    problems = []
    best = best_split(n, p)
    if value != best:
        problems.append(f"{where}: best split value {value}, brute force gives {best}")
    if not 1 <= b <= n - 1 or 2 * b < n or split_value(b, n, p) != best:
        problems.append(f"{where}: b={b} is not a maximizing split with b >= n/2")
    return problems


# ---------------------------------------------------------------------------
# polynomial expansions and the gap function


def interpolate(values: list[Fraction]) -> list[Fraction]:
    """Coefficients, low power first, of the polynomial taking values[k] at
    n = k, by Newton's forward differences."""
    diffs = list(values)
    newton = []
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [Fraction(0)] * len(values)
    basis = [Fraction(1)]  # prod_{i<k} (n - i) / k!, low power first
    for k, d in enumerate(newton):
        for i, c in enumerate(basis):
            coeffs[i] += d * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            nxt[i + 1] += c / (k + 1)
            nxt[i] -= c * k / (k + 1)
        basis = nxt
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def family_poly(family, p: int) -> tuple[Fraction, ...]:
    """The family's e_p as a polynomial in n, from p + 2 direct evaluations."""
    return tuple(interpolate([family.power_sum_at(k, p) for k in range(p + 2)]))


def coeff(poly, k: int) -> Fraction:
    return poly[k] if k < len(poly) else Fraction(0)


def check_expansion(coeffs, family, p: int, where: str) -> list[str]:
    expected = family_poly(family, p)
    got = [Fraction(c) for c in coeffs]
    while got and got[-1] == 0:
        got.pop()
    got = tuple(got)
    if got != expected:
        return [f"{where}: expansion {[str(c) for c in got]} != interpolated {[str(c) for c in expected]}"]
    return []


def leading(a: Fraction, p: int) -> Fraction:
    return a * (1 - a) ** p + a ** p * (1 - a)


def f_gap(a: Fraction, y: Fraction, p: int) -> Fraction:
    r = 1 - a - y
    return leading(a, p) - ((y + a) * r ** p + r * a ** p)


def f_grid_size(step: Fraction) -> int:
    """Points of the grid a = 1/2, 1/2 + step, ... < 1, y = step, 2 step, ... <= 1 - a."""
    total = 0
    a = Fraction(1, 2)
    while a <= 1 - step:
        total += math.floor((1 - a) / step)
        a += step
    return total
