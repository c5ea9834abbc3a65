"""Exact asymptotics of degree power sums along parametric graph families.

A family is a list of (count, degree) pairs whose entries are affine forms
c*n + b with rational coefficients.  Expanding sum(count * degree**p) by the
binomial theorem gives an exact polynomial in n of degree p + 1 over the
rationals, so leading-coefficient identities and dominance comparisons are
decided by exact arithmetic, never by floating point.  So is the split
constant c(p), which split_constant brackets between dyadic rationals;
optimize_c gives the float view.

The family catalog covers the two rewired hub constructions (gprime, gstar),
complete bipartite splits (kbip, t2even, t2odd), and the bounding families
that arise when classifying how outside vertices attach to a dominant hub
(case31, case33, case4eq2, case4eq3).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union


RationalLike = Union[int, str, float, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, float):
        # a float such as a=0.6 from the Python API means the short fraction
        # it was typed as: take the nearest one with denominator <= 10**12
        # (3/5), not the float's binary expansion
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class AffineForm:
    """slope * n + intercept with exact rational coefficients."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, n: int) -> Fraction:
        return self.slope * n + self.intercept

    def __repr__(self) -> str:
        return f"({self.slope})n + ({self.intercept})"


def af(slope: RationalLike, intercept: RationalLike = 0) -> AffineForm:
    return AffineForm(_frac(slope), _frac(intercept))


@dataclass(frozen=True, slots=True)
class NPolynomial:
    """Polynomial in n over Fraction, coefficients low power first."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Sequence[RationalLike]) -> "NPolynomial":
        c = [_frac(v) for v in values]
        while c and c[-1] == 0:
            c.pop()
        return NPolynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"power must be non-negative, got {k}")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "NPolynomial") -> "NPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return NPolynomial.of(
            [self.coefficient(i) + other.coefficient(i) for i in range(size)]
        )

    def __sub__(self, other: "NPolynomial") -> "NPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return NPolynomial.of(
            [self.coefficient(i) - other.coefficient(i) for i in range(size)]
        )

    def __mul__(self, other: "NPolynomial") -> "NPolynomial":
        if not self.coeffs or not other.coeffs:
            return NPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return NPolynomial.of(out)

    def power(self, p: int) -> "NPolynomial":
        if p < 0:
            raise ValueError(f"power must be non-negative, got {p}")
        result = NPolynomial.of([1])
        for _ in range(p):
            result = result * self
        return result

    def evaluate(self, n: RationalLike) -> Fraction:
        x = _frac(n)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def evaluate_int(self, n: int) -> int:
        value = self.evaluate(n)
        if value.denominator != 1:
            raise ValueError(f"value at n={n} is not an integer: {value}")
        return value.numerator

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = [f"({c})n^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(reversed(terms))


@dataclass(frozen=True, slots=True)
class ParametricFamily:
    """Named family of degree profiles parametrized by n."""

    name: str
    params: tuple[tuple[str, Fraction], ...]
    terms: tuple[tuple[AffineForm, AffineForm], ...]

    def power_sum_at(self, n: int, p: int) -> Fraction:
        """sum(count(n) * degree(n)**p), exact, no integrality demanded."""
        if p < 1:
            raise ValueError(f"exponent p must be >= 1, got {p}")
        return sum((cnt(n) * deg(n) ** p for cnt, deg in self.terms), Fraction(0))


def _family(name: str, params: dict[str, Fraction], terms) -> ParametricFamily:
    return ParametricFamily(name, tuple(sorted(params.items())), tuple(terms))


def family_of(name: str, **params: RationalLike) -> ParametricFamily:
    """Build a catalog family by name.

    gprime(a), gstar(a), kbip(a): hub fraction 0 < a < 1.
    t2even(), t2odd(): balanced bipartite profiles at the matching parity.
    case31(a, y): the attachment bound with 1/2 <= a < 1 and 0 < y <= 1 - a.
    case33(a): the clique-outside bound.
    case4eq2(a, x, y), case4eq3(a, x): gate-vertex bounds, x, y >= 1.
    """
    vals = {k: _frac(v) for k, v in params.items()}

    def need(*keys: str) -> list[Fraction]:
        missing = [k for k in keys if k not in vals]
        extra = [k for k in vals if k not in keys]
        if missing or extra:
            raise ValueError(f"family {name!r} takes parameters {keys}, got {tuple(vals)}")
        return [vals[k] for k in keys]

    one = Fraction(1)
    if name == "gprime":
        (a,) = need("a")
        _check_fraction_open(a, "a")
        return _family(name, vals, [
            (af(0, 1), af(a)),
            (af(0, 2), af(0, 2)),
            (af(a, -2), af(one - a)),
            (af(one - a, -1), af(a, -2)),
        ])
    if name == "gstar":
        (a,) = need("a")
        _check_fraction_open(a, "a")
        return _family(name, vals, [
            (af(one - a, -2), af(a)),
            (af(a, -2), af(one - a, -2)),
            (af(0, 2), af(one - a, -3)),
            (af(0, 2), af(0, 2)),
        ])
    if name == "kbip":
        (a,) = need("a")
        _check_fraction_open(a, "a")
        return _family(name, vals, [
            (af(a), af(one - a)),
            (af(one - a), af(a)),
        ])
    if name == "t2even":
        need()
        return _family(name, vals, [(af(1), af(Fraction(1, 2)))])
    if name == "t2odd":
        need()
        h = Fraction(1, 2)
        return _family(name, vals, [
            (af(h, -h), af(h, h)),
            (af(h, h), af(h, -h)),
        ])
    if name == "case31":
        a, y = need("a", "y")
        _check_half_open(a, "a")
        if not 0 < y <= one - a:
            raise ValueError(f"case31 needs 0 < y <= 1 - a, got y={y}, a={a}")
        rest = one - a - y
        return _family(name, vals, [
            (af(0, 1), af(a)),
            (af(0, 2), af(0, 2)),
            (af(0, 1), af(a)),
            (af(rest, -2), af(a)),
            (af(a, -2), af(rest)),
            (af(y, -1), af(rest)),
            (af(0, 1), af(one - a, -2)),
        ])
    if name == "case33":
        (a,) = need("a")
        _check_half_open(a, "a")
        return _family(name, vals, [
            (af(0, 2), af(0, 2)),
            (af(0, 1), af(a)),
            (af(0, 1), af(one - a)),
            (af(a, -3), af(0, 1)),
            (af(one - a, -1), af(one - a, -1)),
        ])
    if name == "case4eq2":
        a, x, y = need("a", "x", "y")
        _check_half_open(a, "a")
        if x < 1 or y < 1:
            raise ValueError(f"case4eq2 needs x >= 1 and y >= 1, got x={x}, y={y}")
        return _family(name, vals, [
            (af(0, 1), af(0, 2 + x)),
            (af(0, 1), af(0, 2 + y)),
            (af(0, 1), af(a)),
            (af(0, x + y), af(0, 2)),
            (af(a, -2), af(one - a, -2 - x - y)),
            (af(one - a, -3 - x - y), af(a)),
            (af(0, 1), af(one - a, -3 - y)),
            (af(0, 1), af(one - a, -3 - x)),
        ])
    if name == "case4eq3":
        a, x = need("a", "x")
        _check_half_open(a, "a")
        if x < 1:
            raise ValueError(f"case4eq3 needs x >= 1, got x={x}")
        return _family(name, vals, [
            (af(0, x + 1), af(0, 2)),
            (af(0, 1), af(0, 2 + x)),
            (af(0, 1), af(a)),
            (af(a, -2), af(one - a, -1 - x)),
            (af(one - a, -2 - x), af(a, -1)),
            (af(0, 1), af(one - a, -2)),
        ])
    raise ValueError(f"unknown family {name!r}")


def _check_fraction_open(a: Fraction, label: str) -> None:
    if not 0 < a < 1:
        raise ValueError(f"{label} must satisfy 0 < {label} < 1, got {a}")


def _check_half_open(a: Fraction, label: str) -> None:
    if not Fraction(1, 2) <= a < 1:
        raise ValueError(f"{label} must satisfy 1/2 <= {label} < 1, got {a}")


def expand_ep(family: ParametricFamily, p: int) -> NPolynomial:
    """Exact expansion of the family's degree power sum as a polynomial in n.

    Each term count * degree**p, with count = c1*n + c0 and degree = s*n + b,
    is expanded in one pass by the binomial theorem.  The sum is kept as
    integer numerators over one common denominator, so Fractions are built
    only for the final coefficients.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    num = [0] * (p + 2)
    den = 1
    for cnt, deg in family.terms:
        q = math.lcm(deg.slope.denominator, deg.intercept.denominator)
        r = math.lcm(cnt.slope.denominator, cnt.intercept.denominator)
        s, b = int(deg.slope * q), int(deg.intercept * q)
        c1, c0 = int(cnt.slope * r), int(cnt.intercept * r)
        term_den = q ** p * r
        if den % term_den:
            grow = math.lcm(den, term_den) // den
            num = [x * grow for x in num]
            den *= grow
        scale = den // term_den
        for k in range(p + 1):
            term = math.comb(p, k) * s ** k * b ** (p - k) * scale
            num[k] += c0 * term
            num[k + 1] += c1 * term
    return NPolynomial.of([Fraction(x, den) for x in num])


# ---------------------------------------------------------------------------
# closed-form coefficients, used as independent checks against expand_ep


def leading_coefficient(a: RationalLike, p: int) -> Fraction:
    """Coefficient of n^(p+1) shared by gprime, gstar, and kbip at split a."""
    return split_objective(_frac(a), p)


def gprime_np_coefficient(a: RationalLike, p: int) -> Fraction:
    a = _frac(a)
    return -2 * p * (1 - a) * a ** (p - 1) - 2 * (1 - a) ** p


def gstar_np_coefficient(a: RationalLike, p: int) -> Fraction:
    a = _frac(a)
    return -2 * a ** p - 2 * p * a * (1 - a) ** (p - 1)


def case31_leading_coefficient(a: RationalLike, y: RationalLike, p: int) -> Fraction:
    a, y = _frac(a), _frac(y)
    return (y + a) * (1 - a - y) ** p + (1 - a - y) * a ** p


def case4eq2_np_coefficient(a: RationalLike, x: RationalLike, y: RationalLike, p: int) -> Fraction:
    a, x, y = _frac(a), _frac(x), _frac(y)
    return -p * a * (2 + x + y) * (1 - a) ** (p - 1) - a ** p * (2 + x + y)


def subcase32_omega_coefficient(a: RationalLike, p: int) -> Fraction:
    """Coefficient on the omega*n^p scale when a near-hub vertex keeps omega
    extra neighbors; non-positive for a >= 1/2, which kills that case."""
    a = _frac(a)
    return (1 - a) ** p - a ** p


# ---------------------------------------------------------------------------
# the gap function f and its positivity sweep


def f_value(a, y, p: int):
    """Leading-coefficient gap between the hub families and the case31 bound.

    f(a, y) = a(1-a)^p + a^p(1-a) - [(y+a)(1-a-y)^p + (1-a-y)a^p].
    Accepts Fraction (exact) or float arguments; 1/2 <= a < 1, 0 < y <= 1-a.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    half = Fraction(1, 2) if isinstance(a, Fraction) else 0.5
    if not half <= a < 1:
        raise ValueError(f"a must satisfy 1/2 <= a < 1, got {a}")
    if not 0 < y <= 1 - a:
        raise ValueError(f"y must satisfy 0 < y <= 1 - a, got y={y}, a={a}")
    rest = 1 - a - y
    return split_objective(a, p) - ((y + a) * rest ** p + rest * a ** p)


@dataclass(frozen=True, slots=True)
class FPositivityReport:
    p: int
    step: Fraction
    grid_points: int
    min_value: Fraction
    argmin: tuple[Fraction, Fraction]
    passed: bool
    evaluated: int  # grid points actually scored; the rest were bounded away


_LEAF_WIDTH = 4  # intervals this narrow are scored point by point


def _first_argmax(
    value: Callable[[int], int], upper: Callable[[int, int], int], lo: int, hi: int
) -> tuple[int, int, int]:
    """Smallest i in [lo, hi] that maximizes value(i), exactly.

    upper(i, j) must be at least value(k) for every k in [i, j].  Intervals
    are taken highest bound first, halved, and scored point by point once
    they are at most _LEAF_WIDTH wide.  An interval is dropped only when its
    bound is strictly below the best value found so far, so every tied
    maximizer is scored and the smallest index wins.

    Returns (index, value, number of points scored).
    """
    best_i, best = lo, -math.inf  # the first leaf scored replaces it
    scored = 0
    heap = [(-upper(lo, hi), lo, hi)]
    while heap:
        neg_bound, i, j = heapq.heappop(heap)
        if -neg_bound < best:
            break  # every interval left is bounded below the best
        if j - i < _LEAF_WIDTH:
            for k in range(i, j + 1):
                val = value(k)
                if val > best or (val == best and k < best_i):
                    best_i, best = k, val
            scored += j - i + 1
            continue
        mid = (i + j) // 2
        for a, b in ((i, mid), (mid + 1, j)):
            bound = upper(a, b)
            if bound >= best:
                heapq.heappush(heap, (-bound, a, b))
    return best_i, best, scored


def verify_f_positive(p: int, step: RationalLike) -> FPositivityReport:
    """Exact minimum of f on the grid a = 1/2, 1/2+step, ..., 1-step and
    y = step, 2*step, ..., <= 1-a.

    Every grid value is a multiple of 1/(2*step.denominator), so the sweep
    runs in scaled integer arithmetic and converts back only at the end.

    In a row a, f = top(a) - h(y) with h(y) = (y+a)(R-y)^p + (R-y)a^p and
    R = 1 - a, so the row minimum of f is top(a) minus the row maximum of h.
    That maximum comes from an exact branch and bound over y: on
    [y_i, y_j], h <= (y_j+a)(R-y_i)^p + (R-y_i)a^p, since each term is an
    increasing factor times a decreasing one, and a range of y is dropped
    only when that bound is strictly below the best h found, so the result
    is the full grid's.  Ties go to the smallest y in a row and the earliest
    row across rows, as in a point-by-point scan.  `grid_points` counts the
    whole grid; `evaluated` counts the points actually scored.

    In fact h is strictly decreasing on each row, so its row maximum lies
    at y = step: h'(y) = (R-y)^(p-1)((R-y) - p(y+a)) - a^p < 0 on
    0 < y <= R, because R - y < 1/2 <= a < p(y+a) makes the first term
    at most 0 and a^p > 0.  The branch and bound does not rely on this.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    step = _frac(step)
    if not 0 < step <= Fraction(1, 2):
        raise ValueError(f"step must satisfy 0 < step <= 1/2, got {step}")
    u, v = step.numerator, step.denominator
    scale = 2 * v
    step_scaled = 2 * u
    min_scaled: Optional[int] = None
    argmin_scaled = (0, 0)
    points = evaluated = 0
    a_scaled = v  # a = 1/2
    while a_scaled <= scale - step_scaled:
        rest_max = scale - a_scaled
        ap = a_scaled ** p

        def h(k: int) -> int:
            y = k * step_scaled
            return (y + a_scaled) * (rest_max - y) ** p + (rest_max - y) * ap

        def h_upper(i: int, j: int) -> int:
            rest = rest_max - i * step_scaled
            return (j * step_scaled + a_scaled) * rest ** p + rest * ap

        last = rest_max // step_scaled
        k, h_max, scored = _first_argmax(h, h_upper, 1, last)
        points += last
        evaluated += scored
        val = a_scaled * rest_max ** p + ap * rest_max - h_max
        if min_scaled is None or val < min_scaled:
            min_scaled = val
            argmin_scaled = (a_scaled, k * step_scaled)
        a_scaled += step_scaled
    if min_scaled is None:
        raise ValueError(f"empty grid for step {step}")
    denom = Fraction(scale) ** (p + 1)
    return FPositivityReport(
        p=p,
        step=step,
        grid_points=points,
        min_value=min_scaled / denom,
        argmin=(Fraction(argmin_scaled[0], scale), Fraction(argmin_scaled[1], scale)),
        passed=min_scaled > 0,
        evaluated=evaluated,
    )


# ---------------------------------------------------------------------------
# the split constant c(p)


def split_objective(x, p: int):
    """x(1-x)^p + x^p(1-x): normalized e_p of the biclique split (x, 1-x)."""
    return x * (1 - x) ** p + x ** p * (1 - x)


@dataclass(frozen=True, slots=True)
class SplitConstant:
    """Dyadic bracket lo <= c(p) <= hi from split_constant."""

    lo: Fraction
    hi: Fraction
    sign_changes: int  # Descartes count for the roots of f' in (1/2, 1)
    slopes: tuple[int, int]  # exact signs of f' at lo and at hi

    @property
    def certified(self) -> bool:
        return self.sign_changes == 0 or (self.sign_changes == 1 and self.slopes == (1, -1))

    @property
    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)


def split_constant(p: int, tol: float = 1e-9) -> SplitConstant:
    """Exact bracket, at most tol wide, around c(p), the argmax of
    f(x) = x(1-x)^p + x^p(1-x) on [1/2, 1].

    With a Descartes count of 0 (p <= 3, see _split_slope), f falls on
    (1/2, 1], so c = 1/2.  With 1, f rises and then falls, and x is
    bisected over dyadic rationals on the exact sign of f' (_slope_sign);
    F'(0) = 1, so by the rational root theorem no t = m(2^e - m)/4^e with
    m odd is a root of F'.  More sign changes (none for p <= 2000) leave
    [1/2, 1] whole and the bracket uncertified.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if not 0 < tol < 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2), got {tol}")
    slope, changes = _split_slope(p)
    m, e = 1, 1  # the bracket is [m, m + 1] / 2^e
    while changes == 1 and 2.0 ** -e > tol:
        m, e = 2 * m, e + 1
        if _slope_sign(slope, m + 1, 1 << e) > 0:
            m += 1
    ends = (m, m + (changes > 0))
    lo, hi = (Fraction(k, 1 << e) for k in ends)
    slopes = tuple(_slope_sign(slope, k, 1 << e) for k in ends)
    return SplitConstant(lo, hi, changes, slopes)


def _split_slope(p: int) -> tuple[list[int], int]:
    """F' and the Descartes count for its roots in (0, 1/4), for the
    f(x) = x(1-x)^p + x^p(1-x) of split_constant.

    With t = x(1-x), f = F(t) = t*q_{p-1}(t), where q_m(t) = x^m + (1-x)^m
    has q_0 = 2, q_1 = 1 and q_m = q_{m-1} - t*q_{m-2}, so F' has integer
    coefficients, returned low power first.  As x runs over [1/2, 1], t
    falls from 1/4 to 0, so f'(x) and F'(t) have opposite signs, and
    F'(0) > 0.  Descartes' rule bounds the roots of F' in (0, 1/4) by the
    sign changes of (1+w)^d F'(1/(4(1+w))), a Taylor shift of the
    reversed, scaled F', and a count of 0 or 1 is exact (Collins-Akritas
    1976): f' < 0 on (1/2, 1] with 0, and with 1, f' > 0 on (1/2, c) and
    f' < 0 on (c, 1].
    """
    q_prev, q = [2], [1]  # q_0 and q_1, low power first
    for _ in range(p - 1):
        q_prev, q = q, [a - b for a, b in itertools.zip_longest(q, [0, *q_prev], fillvalue=0)]
    slope = [(i + 1) * c for i, c in enumerate(q_prev)]  # F' = (t*q_{p-1})'
    d = len(slope) - 1
    shifted = [slope[d - k] << 2 * k for k in range(d + 1)]  # 4^d F'(1/(4u))
    for i in range(d):  # Taylor shift u = 1 + w, additions only
        for j in range(d - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
    signs = [c > 0 for c in shifted if c]
    return slope, sum(a != b for a, b in zip(signs, signs[1:]))


def _slope_sign(slope: list[int], num: int, den: int) -> int:
    """Sign of f' at x = num/den in [1/2, 1]: minus the sign of F' at
    t = num(den - num)/den^2, by integer Horner; f'(1/2) = 0 by symmetry."""
    if 2 * num == den:
        return 0
    t_num, t_den = num * (den - num), den * den
    acc, scale = 0, 1
    for c in reversed(slope):
        acc, scale = acc * t_num + c * scale, scale * t_den
    return (acc < 0) - (acc > 0)


def optimize_c(p: int, tol: float = 1e-9) -> float:
    """c(p) as a float: the midpoint of split_constant(p, tol), so within
    tol / 2 of c(p); float64 holds that dyadic exactly for tol >= 2^-52."""
    bracket = split_constant(p, tol)
    if not bracket.certified:
        raise ArithmeticError(f"c({p}) is not isolated: {bracket}")
    return bracket.midpoint


def best_biclique_split(n: int, p: int) -> tuple[int, int]:
    """Exact argmax over b of e_p(K_{b, n-b}), 1 <= b <= n-1.

    Returns (b, value) with the b >= n/2 representative of the symmetric
    maximum, so b/n lands near c(p) for large n.

    g(b) = b(n-b)^p + (n-b)b^p = n^(p+1) f(b/n) with the f of
    split_constant, so g' has the sign of f' at b/n.  With a Descartes
    count of 0 or 1 (_split_slope), f' >= 0 on [1/2, c(p)] and f' < 0 on
    (c(p), 1], so b is bisected over [ceil(n/2), n-1] for the last b with
    f'(b/n) >= 0: g rises up to it and falls from b + 1 on, so one of
    those two is the maximum.  Without any such b, g falls from ceil(n/2)
    on.  A larger count (none for p <= 2000) scores every b, which is
    still exact.  Among tied maxima the largest b wins.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to split, got {n}")
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")

    def g(b: int) -> int:
        return b * (n - b) ** p + (n - b) * b ** p

    slope, changes = _split_slope(p)
    first = (n + 1) // 2
    if changes > 1:
        candidates = range(first, n)
    else:
        lo, hi = first - 1, n - 1  # the last b with f'(b/n) >= 0, or first - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _slope_sign(slope, mid, n) >= 0:
                lo = mid
            else:
                hi = mid - 1
        candidates = range(max(lo, first), min(lo + 2, n))
    value, b = max((g(b), b) for b in candidates)
    return b, value


# ---------------------------------------------------------------------------
# dominance comparison with a certified threshold


@dataclass(frozen=True, slots=True)
class FamilyComparison:
    difference: NPolynomial = field(repr=False)
    dominant: str  # "first" | "second" | "equal"
    threshold: Optional[int]


def compare_families(first: NPolynomial, second: NPolynomial) -> FamilyComparison:
    """Which of two expand_ep results dominates for all large n, with a
    witness N0.

    The threshold comes from the sum-of-coefficients root bound on the
    difference polynomial d = first - second: for every n >= N0 =
    1 + ceil(S/|lead|) with S the sum of the lower coefficients' absolute
    values, sign(d(n)) equals sign(lead).  Conservative but exact.
    """
    diff = first - second
    if not diff.coeffs:
        return FamilyComparison(diff, "equal", None)
    lead = diff.coeffs[-1]
    s = sum(abs(c) for c in diff.coeffs[:-1])
    threshold = 1 + math.ceil(s / abs(lead))
    return FamilyComparison(diff, "first" if lead > 0 else "second", threshold)
