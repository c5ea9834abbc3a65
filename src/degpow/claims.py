"""Named verification claims: each reproduces one step of the extremal
argument as an exact (or tolerance-documented) machine check.

Every claim returns a JSON-ready report {"claim", "p", "params", "pass",
"witness"}; run_all chains the full suite for one exponent.  Rational values
are serialized as fraction strings so reports stay exact and byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .asymptotics import (
    RationalLike,
    _check_half_open,
    _frac,
    best_biclique_split,
    case31_leading_coefficient,
    case4eq2_np_coefficient,
    compare_families,
    expand_ep,
    f_value,
    family_of,
    gprime_np_coefficient,
    gstar_np_coefficient,
    leading_coefficient,
    optimize_c,
    split_constant,
    split_objective,
    subcase32_omega_coefficient,
    verify_f_positive,
)
from .constructions import (
    GPrime,
    GStar,
    Turan,
    build,
    degree_profile,
    ep_turan2_closed_form,
)
from .graphs import contains_cycle, degree_sequence


def _s(x) -> str:
    return str(Fraction(x)) if isinstance(x, (int, Fraction)) else repr(x)


def _report(claim: str, p: int, params: dict, passed: bool, witness: dict) -> dict:
    return {"claim": claim, "p": p, "params": params, "pass": bool(passed), "witness": witness}


def _check_p(p: int) -> None:
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"exponent p must be an integer >= 1, got {p}")


def claim_turan_closed_form(*, p: int = 2, n: Optional[int] = None) -> dict:
    """Closed form for the balanced 2-partite power sum against the profile."""
    ns = [n] if n is not None else range(3, 501)
    checked = 0
    first_bad = None
    for m in ns:
        if m < 2:  # the 2-partite Turan graph needs two classes
            raise ValueError(f"order must be >= 2, got {m}")
        lhs = ep_turan2_closed_form(m, p)
        rhs = degree_profile(Turan(m, 2)).power_sum(p)
        checked += 1
        if lhs != rhs and first_bad is None:
            first_bad = {"n": m, "closed_form": _s(lhs), "profile": _s(rhs)}
    witness = {"checked": checked, "n": n if n is not None else "3..500"}
    if first_bad:
        witness["counterexample"] = first_bad
    return _report("turan-closed-form", p, {"n": n}, first_bad is None, witness)


def claim_degree_lists(*, p: int = 2, n: int = 20, d: Optional[int] = None) -> dict:
    """Built hub constructions carry exactly their stated degree profiles."""
    if d is None:
        d = n // 2
    ok = True
    witness: dict = {"n": n, "d": d}
    for label, spec in (("gprime", GPrime(n, d)), ("gstar", GStar(n, d))):
        g = build(spec)
        prof = degree_profile(spec)
        degrees_match = sorted(degree_sequence(g)) == sorted(
            deg for cnt, deg in prof.pairs for _ in range(cnt)
        )
        c5_free = not contains_cycle(g, 5)
        e_built = sum(dd ** p for dd in degree_sequence(g))
        fam = family_of(label, a=Fraction(d, n))
        e_family = fam.power_sum_at(n, p)
        witness[label] = {
            "profile": {str(deg): cnt for deg, cnt in prof.counter().items()},
            "c5_free": c5_free,
            "e_p": _s(e_built),
            "family_e_p": _s(e_family),
        }
        ok = ok and degrees_match and c5_free and e_built == e_family
    return _report("degree-lists", p, {"n": n, "d": d}, ok, witness)


def claim_leading_coeff(*, p: int = 2, a: RationalLike = Fraction(1, 2)) -> dict:
    """Both rewired hub families and the plain split share the same n^{p+1}
    coefficient a(1-a)^p + a^p(1-a)."""
    a = _frac(a)
    expected = leading_coefficient(a, p)
    got = {
        name: expand_ep(family_of(name, a=a), p).coefficient(p + 1)
        for name in ("gprime", "gstar", "kbip")
    }
    ok = all(v == expected for v in got.values())
    witness = {"expected": _s(expected)}
    witness.update({name: _s(v) for name, v in got.items()})
    return _report("leading-coeff", p, {"a": _s(a)}, ok, witness)


def claim_np_coeff(*, p: int = 2, a: RationalLike = Fraction(1, 2)) -> dict:
    """n^p coefficients of the hub families match their closed forms and are
    strictly negative, while the plain split has none; the split therefore
    dominates both at the same leading coefficient.  Which hub family beats
    the other varies with (p, a) and is deliberately not asserted."""
    a = _frac(a)
    gprime, gstar, kbip = (expand_ep(family_of(name, a=a), p) for name in ("gprime", "gstar", "kbip"))
    gp, gs, kb = gprime.coefficient(p), gstar.coefficient(p), kbip.coefficient(p)
    vs_gprime = compare_families(kbip, gprime)
    vs_gstar = compare_families(kbip, gstar)
    ok = (
        gp == gprime_np_coefficient(a, p)
        and gs == gstar_np_coefficient(a, p)
        and gp < 0
        and gs < 0
        and kb == 0
        and vs_gprime.dominant == "first"
        and vs_gstar.dominant == "first"
    )
    witness = {
        "gprime_np": _s(gp),
        "gstar_np": _s(gs),
        "split_np": _s(kb),
        "split_beats_both_beyond": max(vs_gprime.threshold, vs_gstar.threshold),
    }
    return _report("np-coeff", p, {"a": _s(a)}, ok, witness)


def claim_case31(*, p: int = 2, a: RationalLike = Fraction(1, 2), y: RationalLike = Fraction(1, 4)) -> dict:
    """The attachment-bound family is led by (y+a)(1-a-y)^p + (1-a-y)a^p and
    trails the hub families by exactly f(a, y) > 0."""
    a, y = _frac(a), _frac(y)
    lead = expand_ep(family_of("case31", a=a, y=y), p).coefficient(p + 1)
    lead_closed = case31_leading_coefficient(a, y, p)
    gap = f_value(a, y, p)
    identity = leading_coefficient(a, p) - lead == gap
    ok = lead == lead_closed and gap > 0 and identity
    witness = {
        "leading": _s(lead),
        "f": _s(gap),
        "gap_identity": identity,
    }
    return _report("case31", p, {"a": _s(a), "y": _s(y)}, ok, witness)


def claim_case32(*, p: int = 2, a: Optional[RationalLike] = None) -> dict:
    """(1-a)^p - a^p <= 0 once a >= 1/2: extra hub-side neighbors at the
    omega*n^p scale cannot help.  A given a must satisfy 1/2 <= a < 1."""
    grid = [_frac(a)] if a is not None else [Fraction(k, 16) for k in range(8, 16)]
    values = {}
    ok = True
    for av in grid:
        _check_half_open(av, "a")
        val = subcase32_omega_coefficient(av, p)
        values[_s(av)] = _s(val)
        ok = ok and val <= 0
    return _report("case32", p, {"a": _s(a) if a is not None else None}, ok, {"coefficients": values})


def claim_case33(*, p: int = 2, a: RationalLike = Fraction(1, 2)) -> dict:
    """The clique-outside bound is led by (1-a)^{p+1}, strictly below the
    balanced split's (1/2)^p."""
    a = _frac(a)
    case33 = expand_ep(family_of("case33", a=a), p)
    t2even = expand_ep(family_of("t2even"), p)
    lead = case33.coefficient(p + 1)
    expected = (1 - a) ** (p + 1)
    t2_lead = t2even.coefficient(p + 1)
    cmp_result = compare_families(t2even, case33)
    ok = lead == expected and lead < t2_lead and cmp_result.dominant == "first"
    witness = {
        "leading": _s(lead),
        "t2_leading": _s(t2_lead),
        "dominant": cmp_result.dominant,
        "threshold": cmp_result.threshold,
    }
    return _report("case33", p, {"a": _s(a)}, ok, witness)


def claim_case4(
    *,
    p: int = 2,
    a: RationalLike = Fraction(1, 2),
    x: RationalLike = 1,
    y: RationalLike = 1,
) -> dict:
    """Both gate-vertex equations lose to the rewired family at the n^p
    scale (their shared n^{p+1} coefficients cancel)."""
    a, x, y = _frac(a), _frac(x), _frac(y)
    gs_np = gstar_np_coefficient(a, p)
    eq2 = expand_ep(family_of("case4eq2", a=a, x=x, y=y), p)
    eq3 = expand_ep(family_of("case4eq3", a=a, x=x), p)
    eq2_np = eq2.coefficient(p)
    eq3_np = eq3.coefficient(p)
    eq2_closed = case4eq2_np_coefficient(a, x, y, p)
    same_lead = eq2.coefficient(p + 1) == eq3.coefficient(p + 1) == leading_coefficient(a, p)
    ok = eq2_np == eq2_closed and eq2_np < gs_np and eq3_np < gs_np and same_lead
    witness = {
        "eq2_np": _s(eq2_np),
        "eq3_np": _s(eq3_np),
        "gstar_np": _s(gs_np),
        "shared_leading": same_lead,
    }
    return _report("case4", p, {"a": _s(a), "x": _s(x), "y": _s(y)}, ok, witness)


def claim_f_positivity(*, p: int = 2, step: RationalLike = Fraction(1, 512)) -> dict:
    """The gap function f stays strictly positive on the whole step grid.

    The minimum is exact over every grid point: each row is searched by
    branch and bound on an upper bound of the case31 term, and a range is
    dropped only when its bound is strictly below the best found, so ties
    are kept and the first grid point (smallest a, then smallest y) wins.
    The witness gives the grid size and how many points were scored.
    """
    report = verify_f_positive(p, step)
    witness = {
        "min": _s(report.min_value),
        "argmin": [_s(report.argmin[0]), _s(report.argmin[1])],
        "grid_points": report.grid_points,
        "evaluated": report.evaluated,
    }
    return _report("f-positivity", p, {"step": _s(report.step)}, report.passed, witness)


def claim_optimizer(*, p: int = 2, tol: float = 1e-9) -> dict:
    """c(p) is bracketed exactly: the Descartes count for the roots of f' in
    (1/2, 1) is 0 (c = 1/2), or 1 with f' > 0 at the bracket's low end and
    f' < 0 at its high end, and the bracket is at most tol wide.  The
    witness gives the bracket, the count, and the float view c (the
    midpoint) with f(c)."""
    bracket = split_constant(p, tol)
    c = bracket.midpoint
    witness = {
        "c": c,
        "f_c": split_objective(c, p),
        "bracket": [_s(bracket.lo), _s(bracket.hi)],
        "sign_changes": bracket.sign_changes,
    }
    ok = bracket.certified and bracket.hi - bracket.lo <= tol
    return _report("optimizer", p, {"tol": tol}, ok, witness)


def claim_split_match(*, p: int = 2, n: int = 10 ** 4) -> dict:
    """The exact best biclique split at order n lands within 1e-2 of c(p).

    The tolerance is the asymptotic one, so small n with large p fails
    honestly: at n = 10 and p = 6 the discrete optimum sits at 9/10 while
    c(6) is about 0.857.
    """
    b, value = best_biclique_split(n, p)
    c = optimize_c(p)
    deviation = abs(b / n - c)
    ok = deviation < 1e-2
    witness = {
        "b": b,
        "ratio": b / n,
        "c": c,
        "deviation": deviation,
        "e_p": _s(value),
    }
    return _report("split-match", p, {"n": n}, ok, witness)


CLAIMS: dict[str, Callable[..., dict]] = {
    "turan-closed-form": claim_turan_closed_form,
    "degree-lists": claim_degree_lists,
    "leading-coeff": claim_leading_coeff,
    "np-coeff": claim_np_coeff,
    "case31": claim_case31,
    "case32": claim_case32,
    "case33": claim_case33,
    "case4": claim_case4,
    "f-positivity": claim_f_positivity,
    "optimizer": claim_optimizer,
    "split-match": claim_split_match,
}


def run_claim(claim_id: str, **params) -> dict:
    """Dispatch one claim by id, the one place that checks the exponent.
    Unknown ids, foreign parameters and an exponent below 1 raise
    ValueError so the CLI can map them to a usage error."""
    try:
        fn = CLAIMS[claim_id]
    except KeyError:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown claim {claim_id!r}; known claims: {known}") from None
    clean = {k: v for k, v in params.items() if v is not None}
    _check_p(clean.get("p", 2))  # 2 is every claim's default exponent
    try:
        return fn(**clean)
    except TypeError as exc:
        raise ValueError(f"claim {claim_id!r} rejected parameters {sorted(clean)}: {exc}") from None


def run_all(p: int = 2) -> list[dict]:
    """Full claim suite at one exponent, in registry order, all other
    parameters at their defaults."""
    return [run_claim(claim_id, p=p) for claim_id in CLAIMS]
