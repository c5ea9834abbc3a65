"""Named graph families and their exact degree profiles.

Each construction is a small frozen dataclass carrying validated integer
parameters.  build() realizes the graph (capped at 64 vertices), while
degree_profile() returns the exact (multiplicity, degree) table, which works
at any size and is what the power-sum arithmetic actually consumes.

Vertex layout conventions inside build() are fixed and documented per
family so that tests can address specific vertices (the hub is always 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .graphs import MAX_ORDER, CapacityError, SmallGraph, from_edges


@dataclass(frozen=True, slots=True)
class DegreeProfile:
    """Exact degree table: ((multiplicity, degree), ...) in construction order."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        order = self.order
        for count, degree in self.pairs:
            if count <= 0:
                raise ValueError(f"profile multiplicity must be positive, got {count}")
            if degree < 0 or degree > order - 1:
                raise ValueError(f"degree {degree} impossible at order {order}")
        if sum(c * d for c, d in self.pairs) % 2:
            raise ValueError("degree sum must be even")

    @property
    def order(self) -> int:
        return sum(c for c, _ in self.pairs)

    def power_sum(self, p: int) -> int:
        """e_p of any graph realizing this profile, without building it."""
        if p < 1:
            raise ValueError(f"exponent p must be >= 1, got {p}")
        return sum(c * d ** p for c, d in self.pairs)

    def counter(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, d in self.pairs:
            out[d] = out.get(d, 0) + c
        return out


def _profile(pairs: Iterable[tuple[int, int]]) -> DegreeProfile:
    return DegreeProfile(tuple((c, d) for c, d in pairs if c > 0))


@dataclass(frozen=True, slots=True)
class Turan:
    """Complete multipartite T_r(n): n vertices in r classes as equal as possible."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Turan order must be >= 1, got n={self.n}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"Turan class count must satisfy 1 <= r <= n, got r={self.r}")


@dataclass(frozen=True, slots=True)
class CompleteBipartite:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("complete bipartite classes must both be nonempty")


@dataclass(frozen=True, slots=True)
class JoinCliqueEmpty:
    """Join of a clique K_k with an independent set of size m.

    k = 2 gives the book graph (two adjacent hubs over m pages), the shape
    that keeps winning the small-order power-sum searches.  C5-freeness is
    only guaranteed for k <= 2 (or trivially small m); the builder itself
    places no such restriction.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 0:
            raise ValueError("join requires k >= 1 and m >= 0")


@dataclass(frozen=True, slots=True)
class HubAttachment:
    """A hub with pendant edges and hub-triangles.

    pendants many degree-1 neighbors, triangles many adjacent pairs in the
    hub's neighborhood.  These are the two neighborhood components a C5-free
    graph allows around a dominant vertex once anything at all is attached;
    richer components can be placed with hub_with_components().
    """

    pendants: int
    triangles: int

    def __post_init__(self) -> None:
        if self.pendants < 0 or self.triangles < 0:
            raise ValueError("attachment counts must be non-negative")


@dataclass(frozen=True, slots=True)
class GPrime:
    """First candidate rewiring: hub u of degree d, one triangle pair in N(u),
    d-2 pendants A1, and every vertex outside {u} + N(u) joined to all of A1."""

    n: int
    hub_degree: int

    def __post_init__(self) -> None:
        if self.hub_degree < 2:
            raise ValueError(f"hub degree must be >= 2, got {self.hub_degree}")
        if self.n - self.hub_degree - 1 < 1:
            raise ValueError(
                f"GPrime needs n - d - 1 >= 1 outside vertices, got n={self.n}, d={self.hub_degree}"
            )


@dataclass(frozen=True, slots=True)
class GStar:
    """Second candidate rewiring: like GPrime but the outside set B routes
    through two gate vertices w1, w2 (a complete bipartite K_{2, |B|-2} inside
    B) while B minus {w1, w2} is joined to all of A1."""

    n: int
    hub_degree: int

    def __post_init__(self) -> None:
        if self.hub_degree < 2:
            raise ValueError(f"hub degree must be >= 2, got {self.hub_degree}")
        if self.n - self.hub_degree - 1 < 3:
            raise ValueError(
                "GStar needs n - d - 1 >= 3 so that B minus the two gates is nonempty, "
                f"got n={self.n}, d={self.hub_degree}"
            )


ConstructionSpec = Union[Turan, CompleteBipartite, JoinCliqueEmpty, HubAttachment, GPrime, GStar]


# ---------------------------------------------------------------------------
# degree profiles (exact, any size)


def degree_profile(spec: ConstructionSpec) -> DegreeProfile:
    """Exact (multiplicity, degree) table of the construction, at any n."""
    if isinstance(spec, Turan):
        n, r = spec.n, spec.r
        q, s = divmod(n, r)
        # s classes of size q+1, r-s of size q; degree is n minus class size
        return _profile([(s * (q + 1), n - (q + 1)), ((r - s) * q, n - q)])
    if isinstance(spec, CompleteBipartite):
        return _profile([(spec.a, spec.b), (spec.b, spec.a)])
    if isinstance(spec, JoinCliqueEmpty):
        k, m = spec.k, spec.m
        return _profile([(k, k - 1 + m), (m, k)])
    if isinstance(spec, HubAttachment):
        p, t = spec.pendants, spec.triangles
        return _profile([(1, p + 2 * t), (p, 1), (2 * t, 2)])
    if isinstance(spec, GPrime):
        n, d = spec.n, spec.hub_degree
        return _profile([(1, d), (2, 2), (d - 2, n - d), (n - d - 1, d - 2)])
    if isinstance(spec, GStar):
        n, d = spec.n, spec.hub_degree
        return _profile([(1, d), (2, 2), (d - 2, n - d - 2), (2, n - d - 3), (n - d - 3, d)])
    raise TypeError(f"unknown construction spec: {spec!r}")


def spec_order(spec: ConstructionSpec) -> int:
    """The number of vertices of the construction."""
    return degree_profile(spec).order


# ---------------------------------------------------------------------------
# builders


def build(spec: ConstructionSpec) -> SmallGraph:
    """Realize the construction as a SmallGraph (order <= 64)."""
    order = spec_order(spec)
    if order > MAX_ORDER:
        raise CapacityError(f"{type(spec).__name__} at order {order} exceeds the {MAX_ORDER}-vertex limit")
    edges: list[tuple[int, int]] = []
    if isinstance(spec, Turan):
        n, r = spec.n, spec.r
        q, s = divmod(n, r)
        part = [i for i in range(r) for _ in range(q + (i < s))]  # s classes of q + 1 first
        edges = [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]]
    elif isinstance(spec, CompleteBipartite):
        edges = [(u, spec.a + v) for u in range(spec.a) for v in range(spec.b)]
    elif isinstance(spec, JoinCliqueEmpty):
        k, m = spec.k, spec.m
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [(u, k + w) for u in range(k) for w in range(m)]
    elif isinstance(spec, HubAttachment):
        p, t = spec.pendants, spec.triangles
        edges = [(0, 1 + i) for i in range(p)]
        for j in range(t):
            x = 1 + p + 2 * j
            edges += [(0, x), (0, x + 1), (x, x + 1)]
    elif isinstance(spec, GPrime):
        # 0 = hub, 1-2 = triangle pair, 3..d = A1 pendants, rest = B
        n, d = spec.n, spec.hub_degree
        edges = [(0, v) for v in range(1, d + 1)] + [(1, 2)]
        edges += [(a, b) for a in range(3, d + 1) for b in range(d + 1, n)]
    elif isinstance(spec, GStar):
        # 0 = hub, 1-2 = triangle pair, 3..d = A1, d+1 and d+2 = gates, rest = B core
        n, d = spec.n, spec.hub_degree
        edges = [(0, v) for v in range(1, d + 1)] + [(1, 2)]
        edges += [(w, b) for w in (d + 1, d + 2) for b in range(d + 3, n)]
        edges += [(a, b) for a in range(3, d + 1) for b in range(d + 3, n)]
    else:
        raise TypeError(f"unknown construction spec: {spec!r}")
    return from_edges(order, edges)


def hub_with_components(components: Sequence[SmallGraph]) -> SmallGraph:
    """Hub graph with arbitrary neighborhood components.

    Every vertex of every component becomes a neighbor of the hub (vertex 0)
    and each component keeps its internal edges; distinct components stay
    disjoint.  HubAttachment is the special case of K1 and K2 components.
    """
    order = 1 + sum(c.order for c in components)
    if order > MAX_ORDER:
        raise CapacityError(f"hub graph at order {order} exceeds the {MAX_ORDER}-vertex limit")
    edges: list[tuple[int, int]] = []
    offset = 1
    for comp in components:
        edges.extend((0, offset + v) for v in range(comp.order))
        edges.extend((offset + u, offset + v) for u, v in comp.edges())
        offset += comp.order
    return from_edges(order, edges)


# ---------------------------------------------------------------------------
# closed forms and completion


def ep_turan2_closed_form(n: int, p: int) -> int:
    """e_p of the balanced complete bipartite graph on n vertices.

    floor(n/2) vertices of degree ceil(n/2) and vice versa, so the value is
    floor(n/2)*ceil(n/2)**p + ceil(n/2)*floor(n/2)**p, exactly.
    """
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    lo, hi = n // 2, n - n // 2
    return lo * hi ** p + hi * lo ** p


def bipartite_completion(g: SmallGraph, u: int) -> SmallGraph:
    """Complete bipartite graph on the split (everything outside N(u), N(u)).

    Keeps vertex labels; u lands on the first side with all its non-neighbors.
    Requires u to have at least one neighbor.
    """
    if not 0 <= u < g.order:
        raise ValueError(f"vertex {u} out of range for order {g.order}")
    nu = g.rows[u]
    if nu == 0:
        raise ValueError(f"vertex {u} is isolated, the split would be degenerate")
    side_x = [v for v in range(g.order) if not (nu >> v) & 1]
    side_y = [v for v in range(g.order) if (nu >> v) & 1]
    return from_edges(g.order, [(x, y) for x in side_x for y in side_y])


# ---------------------------------------------------------------------------
# CLI-facing spec strings


_SPEC_SHAPES: dict[str, tuple[tuple[str, ...], type]] = {
    "turan": (("n", "r"), Turan),
    "kbip": (("a", "b"), CompleteBipartite),
    "joinke": (("k", "m"), JoinCliqueEmpty),
    "hub": (("p", "t"), HubAttachment),
    "gprime": (("n", "d"), GPrime),
    "gstar": (("n", "d"), GStar),
}


def parse_spec(text: str) -> ConstructionSpec:
    """Parse construction strings like 'turan:n=20,r=2' or 'gprime:n=20,d=10'."""
    name, sep, body = text.partition(":")
    name = name.strip().lower()
    if name not in _SPEC_SHAPES:
        raise ValueError(f"unknown construction {name!r}; expected one of {sorted(_SPEC_SHAPES)}")
    keys, cls = _SPEC_SHAPES[name]
    if not sep:
        example = ",".join(f"{key}=.." for key in keys)
        raise ValueError(f"construction {name!r} needs parameters {example!r}")
    given: dict[str, int] = {}
    for part in body.split(","):
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise ValueError(f"bad parameter {part!r} for construction {name!r} (expected {keys})")
        if key in given:
            raise ValueError(f"duplicate parameter {key!r}")
        try:
            given[key] = int(val)
        except ValueError:
            raise ValueError(f"parameter {key!r} must be an integer, got {val!r}") from None
    missing = [k for k in keys if k not in given]
    if missing:
        raise ValueError(f"construction {name!r} missing parameters {missing}")
    return cls(*(given[k] for k in keys))


def spec_name(spec: ConstructionSpec) -> str:
    for name, (_, cls) in _SPEC_SHAPES.items():
        if type(spec) is cls:
            return name
    raise TypeError(f"unknown construction spec: {spec!r}")
