"""Symbolic expansion of family power sums, coefficient identities behind the
case analysis, the f-positivity sweep, and the split-constant optimizer.

Everything rational is checked exactly; the bracket around c(p) is checked
by exact sign tests against the closed forms (p <= 5) and by independent
evaluation of f', and its float view against a dense numpy grid.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from degpow.asymptotics import (
    AffineForm,
    FPositivityReport,
    NPolynomial,
    SplitConstant,
    _first_argmax,
    _frac,
    af,
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
from degpow.claims import claim_optimizer, run_claim

HALF = Fraction(1, 2)
A_GRID = [HALF, Fraction(3, 5), Fraction(7, 10)]


# ---------------------------------------------------------------------------
# polynomial plumbing


def test_frac_reads_floats_as_short_fractions():
    assert _frac(0.6) == Fraction(3, 5)
    assert _frac(0.6) != Fraction(0.6)  # not the binary expansion
    assert _frac(1 / 3) == Fraction(1, 3)
    assert _frac(0.75) == Fraction(3, 4)
    assert _frac("7/10") == Fraction(7, 10)
    assert af(0.6, -2) == af(Fraction(3, 5), -2)


def test_affine_form_evaluation():
    form = af(HALF, -2)
    assert form(10) == 3
    assert repr(af(1, 0)) == "(1)n + (0)"


def test_npolynomial_arithmetic():
    p = NPolynomial.of([1, 2])       # 2n + 1
    q = NPolynomial.of([0, 0, 1])    # n^2
    assert (p + q).coeffs == (1, 2, 1)
    assert (q - q).coeffs == ()
    assert (p * p).coeffs == (1, 4, 4)
    assert p.power(3).evaluate(5) == 11 ** 3
    assert q.coefficient(5) == 0
    with pytest.raises(ValueError):
        q.coefficient(-1)
    with pytest.raises(ValueError):
        p.power(-1)


def test_npolynomial_integer_evaluation():
    p = NPolynomial.of([HALF, HALF])
    assert p.evaluate_int(3) == 2
    with pytest.raises(ValueError):
        p.evaluate_int(2)


# ---------------------------------------------------------------------------
# family catalog


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        family_of("nosuch", a=HALF)
    with pytest.raises(ValueError):
        family_of("gprime")  # missing a
    with pytest.raises(ValueError):
        family_of("gprime", a=HALF, y=1)  # foreign parameter
    with pytest.raises(ValueError):
        family_of("gprime", a=0)
    with pytest.raises(ValueError):
        family_of("t2even", a=HALF)
    with pytest.raises(ValueError):
        family_of("case31", a=Fraction(1, 3), y=Fraction(1, 4))  # a below 1/2
    with pytest.raises(ValueError):
        family_of("case31", a=HALF, y=Fraction(3, 5))  # y beyond 1 - a
    with pytest.raises(ValueError):
        family_of("case4eq2", a=HALF, x=0, y=1)
    with pytest.raises(ValueError):
        family_of("case4eq3", a=HALF, x=Fraction(1, 2))


def test_family_power_sum_matches_expansion():
    for name, params in [
        ("gprime", {"a": Fraction(3, 5)}),
        ("gstar", {"a": HALF}),
        ("kbip", {"a": Fraction(7, 10)}),
        ("t2even", {}),
        ("case31", {"a": HALF, "y": Fraction(1, 4)}),
        ("case33", {"a": Fraction(3, 5)}),
        ("case4eq2", {"a": HALF, "x": 1, "y": 2}),
        ("case4eq3", {"a": Fraction(3, 5), "x": 1}),
    ]:
        fam = family_of(name, **params)
        poly = expand_ep(fam, 3)
        for n in (20, 40, 100):
            assert poly.evaluate(n) == fam.power_sum_at(n, 3), name


def test_expand_ep_matches_repeated_multiplication():
    # reference: count form times p NPolynomial multiplications of the degree
    families = [family_of("t2even"), family_of("t2odd")]
    for a in (HALF, Fraction(3, 5), Fraction(5, 7), Fraction(11, 12)):
        families += [family_of(name, a=a) for name in ("gprime", "gstar", "kbip", "case33")]
        families += [
            family_of("case31", a=a, y=(1 - a) / 3),
            family_of("case4eq2", a=a, x=2, y=Fraction(7, 2)),
            family_of("case4eq3", a=a, x=3),
        ]
    families.append(family_of("kbip", a=Fraction(1, 3)))
    for fam in families:
        for p in range(1, 10):
            reference = NPolynomial(())
            for cnt, deg in fam.terms:
                cnt_poly = NPolynomial.of([cnt.intercept, cnt.slope])
                deg_poly = NPolynomial.of([deg.intercept, deg.slope])
                reference = reference + cnt_poly * deg_poly.power(p)
            assert expand_ep(fam, p) == reference, (fam.name, fam.params, p)


def test_family_power_sums_match_construction_power_sums():
    from degpow.constructions import GPrime, GStar, degree_profile

    for n in (20, 40, 100, 10 ** 4):
        for p in range(1, 9):
            fam = family_of("gprime", a=HALF)
            assert fam.power_sum_at(n, p) == degree_profile(GPrime(n, n // 2)).power_sum(p)
            fam = family_of("gstar", a=HALF)
            assert fam.power_sum_at(n, p) == degree_profile(GStar(n, n // 2)).power_sum(p)


def test_t2_families_match_turan_profiles():
    from degpow.constructions import Turan, degree_profile

    for n in (20, 40, 100):
        for p in (1, 2, 5):
            assert family_of("t2even").power_sum_at(n, p) == degree_profile(Turan(n, 2)).power_sum(p)
    for n in (21, 41, 101):
        for p in (1, 2, 5):
            assert family_of("t2odd").power_sum_at(n, p) == degree_profile(Turan(n, 2)).power_sum(p)


# ---------------------------------------------------------------------------
# frozen coefficients and identities


def test_frozen_coefficient_values():
    assert expand_ep(family_of("t2even"), 2).coefficient(3) == Fraction(1, 4)
    gp = expand_ep(family_of("gprime", a=HALF), 2)
    assert gp.coefficient(2) == Fraction(-3, 2)
    assert gp.evaluate(20) == 1484
    assert expand_ep(family_of("gstar", a=HALF), 2).evaluate(20) == 1418
    assert expand_ep(family_of("gstar", a=Fraction(3, 5)), 3).coefficient(4) == Fraction(78, 625)


def test_leading_coefficient_identity():
    for p in range(2, 9):
        for a in A_GRID:
            expected = a * (1 - a) ** p + a ** p * (1 - a)
            assert leading_coefficient(a, p) == expected
            for name in ("gprime", "gstar", "kbip"):
                poly = expand_ep(family_of(name, a=a), p)
                assert poly.coefficient(p + 1) == expected, (name, p, a)


def test_np_coefficient_identities_and_signs():
    for p in range(2, 9):
        for a in A_GRID:
            gp = expand_ep(family_of("gprime", a=a), p).coefficient(p)
            gs = expand_ep(family_of("gstar", a=a), p).coefficient(p)
            assert gp == gprime_np_coefficient(a, p) == -2 * p * (1 - a) * a ** (p - 1) - 2 * (1 - a) ** p
            assert gs == gstar_np_coefficient(a, p) == -2 * a ** p - 2 * p * a * (1 - a) ** (p - 1)
            assert gp < 0 and gs < 0
            # the plain split sheds nothing at this order
            assert expand_ep(family_of("kbip", a=a), p).coefficient(p) == 0


def test_case31_leading_and_gap_identity():
    for p in (2, 3, 5):
        for a, y in [(HALF, Fraction(1, 4)), (Fraction(3, 5), Fraction(1, 5)), (HALF, HALF)]:
            fam = family_of("case31", a=a, y=y)
            lead = expand_ep(fam, p).coefficient(p + 1)
            assert lead == case31_leading_coefficient(a, y, p)
            assert leading_coefficient(a, p) - lead == f_value(a, y, p)
            assert f_value(a, y, p) > 0


def test_claim_case31_gap_identity_reads_the_expansion(monkeypatch):
    # the witness compares the expansion's own lead with the gap, so an
    # expansion with a wrong n^{p+1} coefficient breaks the identity
    from degpow import claims

    def shifted(family, p):
        poly = expand_ep(family, p)
        coeffs = list(poly.coeffs)
        coeffs[p + 1] += Fraction(1, 7)
        return NPolynomial.of(coeffs)

    monkeypatch.setattr(claims, "expand_ep", shifted)
    for p in (2, 3, 5):
        report = run_claim("case31", p=p)
        assert report["witness"]["gap_identity"] is False, p
        assert report["pass"] is False, p


def test_f_value_examples():
    assert f_value(HALF, Fraction(1, 4), 2) == Fraction(9, 64)
    for a in A_GRID:
        for p in (2, 3, 7):
            # at y = 1 - a the subtracted terms vanish
            assert f_value(a, 1 - a, p) == leading_coefficient(a, p)
    assert f_value(0.6, 0.2, 3) > 0
    with pytest.raises(ValueError):
        f_value(Fraction(1, 3), Fraction(1, 4), 2)
    with pytest.raises(ValueError):
        f_value(HALF, Fraction(3, 4), 2)
    with pytest.raises(ValueError):
        f_value(HALF, 0, 2)
    with pytest.raises(ValueError):
        f_value(HALF, Fraction(1, 4), 0)


def test_case32_omega_coefficient_sign():
    for p in (2, 3, 6):
        for k in range(8, 16):
            a = Fraction(k, 16)
            val = subcase32_omega_coefficient(a, p)
            assert val <= 0
            assert (val == 0) == (a == HALF)
        # direction sanity: below 1/2 the sign flips
        assert subcase32_omega_coefficient(Fraction(1, 3), p) > 0


def test_claim_case32_takes_a_only_in_its_domain():
    # the coefficient itself takes any a; the claim, like case33, needs
    # 1/2 <= a < 1
    for a in (Fraction(1, 4), 0, 1, Fraction(3, 2)):
        with pytest.raises(ValueError, match="1/2 <= a < 1"):
            run_claim("case32", p=2, a=a)
        with pytest.raises(ValueError, match="1/2 <= a < 1"):
            run_claim("case33", p=2, a=a)
    report = run_claim("case32", p=2, a=HALF)
    assert report["pass"] and report["witness"] == {"coefficients": {"1/2": "0"}}
    assert len(run_claim("case32", p=3)["witness"]["coefficients"]) == 8


def test_case33_leading_below_balanced_split():
    for p in (2, 4, 6):
        for a in (HALF, Fraction(3, 5)):
            case33 = expand_ep(family_of("case33", a=a), p)
            lead = case33.coefficient(p + 1)
            assert lead == (1 - a) ** (p + 1)
            t2even = expand_ep(family_of("t2even"), p)
            t2_lead = t2even.coefficient(p + 1)
            assert t2_lead == HALF ** p
            assert lead < t2_lead
            result = compare_families(t2even, case33)
            assert result.dominant == "first"


def test_case4_np_coefficients_below_gstar():
    for p in (2, 3, 4):
        for a in (HALF, Fraction(3, 5)):
            gs = gstar_np_coefficient(a, p)
            for x, y in [(1, 1), (1, 2), (3, 1)]:
                eq2 = expand_ep(family_of("case4eq2", a=a, x=x, y=y), p)
                eq2_np = eq2.coefficient(p)
                assert eq2_np == case4eq2_np_coefficient(a, x, y, p)
                assert eq2_np < gs, ("eq2", p, a, x, y)
                assert eq2.coefficient(p + 1) == leading_coefficient(a, p)
            for x in (1, 2, 3):
                eq3 = expand_ep(family_of("case4eq3", a=a, x=x), p)
                assert eq3.coefficient(p) < gs, ("eq3", p, a, x)
                assert eq3.coefficient(p + 1) == leading_coefficient(a, p)


# ---------------------------------------------------------------------------
# f-positivity sweep


def test_verify_f_positive_single_point_grid():
    report = verify_f_positive(2, HALF)
    assert report.grid_points == 1
    assert report.argmin == (HALF, HALF)
    assert report.min_value == Fraction(1, 4)
    assert report.passed


def test_verify_f_positive_matches_direct_evaluation():
    steps = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(3, 16),
             Fraction(1, 16), Fraction(1, 64), Fraction(1, 100)]
    for p in range(1, 10):
        for step in steps:
            direct = []  # every grid point, scored with f_value
            a = HALF
            while a <= 1 - step:
                y = step
                while y <= 1 - a:
                    direct.append((f_value(a, y, p), a, y))
                    y += step
                a += step
            best = min(direct)  # smallest f, then smallest a, then smallest y
            report = verify_f_positive(p, step)
            expected = FPositivityReport(
                p=p,
                step=step,
                grid_points=len(direct),
                min_value=best[0],
                argmin=(best[1], best[2]),
                passed=best[0] > 0,
                evaluated=report.evaluated,
            )
            assert report == expected, (p, step)
            assert 0 < report.evaluated <= report.grid_points


def test_f_positivity_rows_rise_along_y():
    # verify_f_positive's docstring proves h strictly decreasing on a row, so
    # f = top(a) - h(y) rises along y and each row's minimum is at y = step
    for p in range(1, 11):
        for step in (HALF, Fraction(1, 3), Fraction(2, 7), Fraction(1, 16), Fraction(1, 40)):
            a = HALF
            while a <= 1 - step:
                row = [f_value(a, k * step, p) for k in range(1, math.floor((1 - a) / step) + 1)]
                assert all(x < y for x, y in zip(row, row[1:])), (p, step, a)
                a += step
            assert verify_f_positive(p, step).argmin[1] == step, (p, step)


def test_verify_f_positive_scores_a_small_share_of_the_grid():
    for p in (2, 5, 8):
        report = verify_f_positive(p, Fraction(1, 512))
        assert report.grid_points == 32896
        assert report.evaluated < 0.05 * report.grid_points, (p, report.evaluated)


def test_verify_f_positive_fine_grid_positive():
    report = verify_f_positive(2, Fraction(1, 256))
    assert report.passed and report.min_value > 0


def test_verify_f_positive_validation():
    with pytest.raises(ValueError):
        verify_f_positive(0, HALF)
    with pytest.raises(ValueError):
        verify_f_positive(2, 0)
    with pytest.raises(ValueError):
        verify_f_positive(2, Fraction(2, 3))


# ---------------------------------------------------------------------------
# the split constant


def test_optimize_c_closed_forms():
    assert optimize_c(1) == 0.5
    assert optimize_c(2) == 0.5
    assert optimize_c(3) == 0.5
    assert abs(optimize_c(4) - (1 + 3 ** -0.5) / 2) < 1e-8
    t_star = (4 - math.sqrt(10)) / 6
    assert abs(optimize_c(5) - (1 + math.sqrt(1 - 4 * t_star)) / 2) < 1e-8


def test_optimize_c_meets_tight_tolerances():
    # bisection on the derivative's sign resolves the argmax far below the
    # 1e-8 the objective itself can distinguish
    closed = {4: (1 + 3 ** -0.5) / 2, 5: (1 + math.sqrt(1 - 4 * (4 - math.sqrt(10)) / 6)) / 2}
    for p, c in closed.items():
        for tol in (1e-12, 1e-15):
            assert abs(optimize_c(p, tol) - c) <= tol, (p, tol)
        assert claim_optimizer(p=p, tol=1e-12)["pass"], p


def test_optimize_c_monotone_toward_one():
    values = [optimize_c(p) for p in range(3, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1


def test_optimize_c_agrees_with_dense_grid():
    xs = np.linspace(0.5, 1.0, 10 ** 6 + 1)
    for p in range(2, 13):
        c = optimize_c(p, tol=1e-6)
        ys = xs * (1 - xs) ** p + xs ** p * (1 - xs)
        grid_argmax = float(xs[int(np.argmax(ys))])
        assert abs(c - grid_argmax) <= 1e-5, p


def exact_slope(x: Fraction, p: int) -> Fraction:
    """f'(x) for f = x(1-x)^p + x^p(1-x), term by term."""
    return (1 - x) ** p - p * x * (1 - x) ** (p - 1) + p * x ** (p - 1) * (1 - x) - x ** p


def sign(x) -> int:
    return (x > 0) - (x < 0)


def test_split_constant_counts_one_interior_maximum_from_p_4():
    for p in range(1, 101):
        bracket = split_constant(p, 1e-3)
        assert bracket.sign_changes == (0 if p <= 3 else 1), p
        assert bracket.certified, p
        if p <= 3:
            assert bracket.lo == bracket.hi == HALF


def test_split_constant_brackets_the_closed_forms():
    # with t = x(1-x), falling on [1/2, 1]: c(4) has t = 1/6 and c(5) solves
    # 6t^2 - 8t + 1 = 0, so the roots sit strictly between t(hi) and t(lo)
    t = lambda x: x * (1 - x)  # noqa: E731
    for tol in (1e-3, 1e-9, 1e-15):
        b4, b5 = split_constant(4, tol), split_constant(5, tol)
        assert t(b4.lo) > Fraction(1, 6) > t(b4.hi)
        quad = lambda x: 6 * t(x) ** 2 - 8 * t(x) + 1  # noqa: E731
        assert sign(quad(b5.lo)) == -sign(quad(b5.hi)) != 0


def test_split_constant_width_and_end_slopes_are_exact():
    for p in range(1, 41):
        for tol in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            bracket = split_constant(p, tol)
            assert 0 <= bracket.hi - bracket.lo <= tol, (p, tol)
            assert bracket.lo.denominator & (bracket.lo.denominator - 1) == 0  # dyadic
            assert bracket.slopes == (sign(exact_slope(bracket.lo, p)), sign(exact_slope(bracket.hi, p)))
            if p >= 4:
                assert bracket.slopes == (1, -1), (p, tol)
            assert optimize_c(p, tol) == float((bracket.lo + bracket.hi) / 2)


def test_split_constant_uncertified_brackets():
    assert not SplitConstant(HALF, Fraction(1), 3, (0, -1)).certified
    assert not SplitConstant(HALF, Fraction(3, 4), 1, (0, -1)).certified
    assert SplitConstant(Fraction(3, 4), Fraction(7, 8), 1, (1, -1)).certified


def test_claim_optimizer_witness_is_the_bracket():
    for p in range(1, 10):
        report = claim_optimizer(p=p, tol=1e-12)
        w = report["witness"]
        assert report["pass"], p
        assert set(w) == {"c", "f_c", "bracket", "sign_changes"}
        lo, hi = (Fraction(x) for x in w["bracket"])
        assert lo <= Fraction(w["c"]) <= hi and hi - lo <= Fraction(1e-12)
        assert w["sign_changes"] == (0 if p <= 3 else 1)
        assert w["f_c"] == split_objective(w["c"], p)


def test_optimize_c_large_exponents():
    start = time.perf_counter()
    c = optimize_c(1000)
    elapsed = time.perf_counter() - start
    # c(p) = 1 - 1/p + O(1/p^2): the maximum moves toward the lopsided split
    assert 1 - 1 / 1000 - 1e-5 < c < 1 - 1 / 1000 + 1e-5
    assert elapsed < 5.0, f"optimize_c(1000) took {elapsed:.2f} s"
    for p in (100, 200, 300):
        assert claim_optimizer(p=p, tol=1e-12)["pass"], p


def test_optimize_c_validation():
    with pytest.raises(ValueError):
        optimize_c(0)
    with pytest.raises(ValueError):
        optimize_c(2, tol=0)
    with pytest.raises(ValueError):
        optimize_c(2, tol=0.5)


def test_split_objective_symmetry():
    for p in (2, 5, 9):
        for x in (Fraction(1, 10), Fraction(3, 10), HALF, Fraction(2, 7)):
            assert split_objective(x, p) == split_objective(1 - x, p)
        for x in (0.1, 0.3, 0.5):
            # float version only up to rounding of 1 - x
            assert split_objective(x, p) == pytest.approx(split_objective(1 - x, p), rel=1e-12)


def test_best_biclique_split_small_cases():
    assert best_biclique_split(10, 1) == (5, 50)
    b, val = best_biclique_split(10, 6)
    assert (b, val) == (9, 531450)
    # brute force over the smaller side; the first maximum wins a tie, so
    # the reported larger side is the largest tied one
    for n in range(2, 301):
        for p in range(1, 10):
            best_k, best_val = 1, -1
            for k in range(1, n // 2 + 1):
                val = k * (n - k) ** p + (n - k) * k ** p
                if val > best_val:
                    best_k, best_val = k, val
            assert best_biclique_split(n, p) == (n - best_k, best_val), (n, p)
    with pytest.raises(ValueError):
        best_biclique_split(1, 2)
    with pytest.raises(ValueError):
        best_biclique_split(10, 0)


# values of the exhaustive scan over every split
LARGE_SPLITS = {
    (100_000, 2): (50000, 250000000000000),
    (100_000, 3): (50000, 12500000000000000000),
    (100_000, 4): (78868, 833333333096607667200000),
    (100_000, 5): (83223, 67088455561282851201909677022),
    (100_000, 6): (85705, 5666007881909081059243429687500000),
    (100_000, 7): (87499, 490874052541982766801291187351250599998),
    (100_000, 8): (88889, 43304947659663652157902578389852203423300000),
    (1_000_000, 2): (500000, 250000000000000000),
    (1_000_000, 3): (500000, 125000000000000000000000),
    (1_000_000, 4): (788675, 83333333333315217578125000000),
    (1_000_000, 5): (832234, 67088455586635282570552545308957568),
    (1_000_000, 6): (857051, 56660078819622811691796472905350995000000),
    (1_000_000, 7): (874994, 49087405277496525043682121523305993679612640768),
    (1_000_000, 8): (888889, 43304947663538680388415271584192702761193634233000000),
}


def test_best_biclique_split_large_orders_pinned():
    for (n, p), expected in LARGE_SPLITS.items():
        assert best_biclique_split(n, p) == expected, (n, p)


# b at orders far beyond a scan, as the interval branch and bound that
# preceded the bisection found them
HUGE_SPLITS = {
    (10**50, 2): 5 * 10**49,
    (10**50, 4): 78867513459481288225457439025097872782380087563506,
    (10**50, 8): 88888851800597146335656085417417483476453884851800,
    (10**400 + 7, 4): int(
        "7886751345948128822545743902509787278238008756350634380093011632"
        "4198883615146667284685769779287476261260435690256778383832832418"
        "2499825413135275918682395608088015538650384263677995803350180779"
        "1538775025520572111505538144417787091114869729952045078552767279"
        "7693133650833108956330989824460839125109600845943639135493435015"
        "7933697865054180524304920659972166298304084714785743972152891204"
        "0273307646425668"
    ),
}


def test_best_biclique_split_bisects_on_the_slope(monkeypatch):
    # b is bisected on the exact sign of f' at b/n: at most one sign test
    # per bit of n, also at p = 3, where g is flat to fourth order at n/2
    from degpow import asymptotics

    slope_sign = asymptotics._slope_sign
    tested = []

    def counted(slope, num, den):
        tested.append(num)
        return slope_sign(slope, num, den)

    monkeypatch.setattr(asymptotics, "_slope_sign", counted)
    n = 10**6
    for p in range(1, 9):
        tested.clear()
        # at p = 1, g = 2b(n - b) peaks at n/2
        assert best_biclique_split(n, p) == LARGE_SPLITS.get((n, p), (n // 2, n * n // 2))
        assert len(tested) <= n.bit_length(), (p, len(tested))
    n = 10**50
    assert best_biclique_split(n, 3) == (n // 2, n**4 // 8)
    for (n, p), b in HUGE_SPLITS.items():
        assert best_biclique_split(n, p) == (b, b * (n - b) ** p + (n - b) * b ** p), (n, p)
        if p == 4:  # c(4) = (3 + sqrt(3))/6, and b is next to c(4) n
            low = (3 * n + math.isqrt(3 * n * n)) // 6
            assert b in (low, low + 1), n
    # a Descartes count above 1 scores every b, with the same result
    small = {(n, p): best_biclique_split(n, p) for n in range(2, 60) for p in range(1, 9)}
    monkeypatch.setattr(asymptotics, "_split_slope", lambda p: ([], 2))
    tested.clear()
    for (n, p), expected in small.items():
        assert best_biclique_split(n, p) == expected, (n, p)
    assert not tested


def test_first_argmax_keeps_the_smallest_tied_maximizer():
    def check(values, lo=0):
        hi = lo + len(values) - 1
        value = lambda k: values[k - lo]  # noqa: E731
        upper = lambda i, j: max(values[i - lo:j - lo + 1])  # noqa: E731  exact bound
        loose = lambda i, j: upper(i, j) + 5  # noqa: E731
        # exact on the left end, loose elsewhere: a later tie is found first
        right_loose = lambda i, j: upper(i, j) + 5 * (i > lo)  # noqa: E731
        best = max(values)
        want = lo + values.index(best)
        for bound in (upper, loose, right_loose):
            k, val, scored = _first_argmax(value, bound, lo, hi)
            assert (k, val) == (want, best), (values, lo)
            assert 1 <= scored <= len(values)

    check([7])
    check([3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3])               # one long plateau
    check([0, 1, 5, 2, 5, 5, 1, 5, 0, 0, 0, 0, 5])          # four tied maxima
    check([1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9, 9, 9, 9])     # plateau at the right end
    check([9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9])  # ties at both ends
    check([-4, -2, -2, -9, -2], lo=17)                      # negative values, offset range
    for seed in range(50):
        rng = random.Random(seed)
        check([rng.randint(0, 4) for _ in range(rng.randint(1, 40))], lo=rng.randint(-3, 3))
    # a tight bound on a single peak scores only a few points
    peak = [-(k - 700) ** 2 for k in range(1000)]
    _, _, scored = _first_argmax(
        lambda k: peak[k], lambda i, j: peak[min(max(700, i), j)], 0, 999)
    assert scored < 50


# ---------------------------------------------------------------------------
# dominance comparison


def test_compare_families_gprime_vs_balanced_split():
    gprime = expand_ep(family_of("gprime", a=HALF), 2)
    t2even = expand_ep(family_of("t2even"), 2)
    result = compare_families(gprime, t2even)
    assert result.dominant == "second"
    assert result.difference.degree == 2
    assert result.difference.coeffs[-1] == Fraction(-3, 2)
    assert result.threshold == 7
    # beyond the certified threshold the sign is locked in
    for n in (result.threshold, result.threshold + 50, 10 ** 4):
        assert result.difference.evaluate(n) < 0
    flipped = compare_families(t2even, gprime)
    assert flipped.dominant == "first"
    assert flipped.difference.coeffs[-1] == Fraction(3, 2)


def test_compare_families_equal():
    poly = expand_ep(family_of("gstar", a=Fraction(3, 5)), 4)
    result = compare_families(poly, poly)
    assert result.dominant == "equal"
    assert result.difference.coeffs == ()
    assert result.threshold is None


def test_compare_families_split_beats_both_hub_variants():
    # equal n^{p+1} coefficients, but the plain split has no lower-order
    # terms at all while each hub variant sheds a positive multiple of n^p
    for p in (2, 3, 5):
        for a in A_GRID:
            kb = family_of("kbip", a=a)
            for other in ("gprime", "gstar"):
                fam = family_of(other, a=a)
                poly = expand_ep(fam, p)
                result = compare_families(expand_ep(kb, p), poly)
                assert result.dominant == "first", (p, a, other)
                assert result.difference.degree == p
                assert result.difference.coeffs[-1] == -poly.coefficient(p)
                n = 10 * result.threshold
                assert kb.power_sum_at(n, p) > fam.power_sum_at(n, p)


def test_compare_families_hub_variant_order_flips():
    # neither hub variant beats the other uniformly: at a = 3/5 the n^p
    # coefficients are -32/25 vs -42/25 for p = 2 but -1684/3125 vs
    # -966/3125 for p = 5, so the winner swaps between those exponents
    a = Fraction(3, 5)
    gp, gs = family_of("gprime", a=a), family_of("gstar", a=a)
    assert compare_families(expand_ep(gp, 2), expand_ep(gs, 2)).dominant == "first"
    assert compare_families(expand_ep(gp, 5), expand_ep(gs, 5)).dominant == "second"
    # at the even split the n^p coefficients coincide and the tie is
    # broken strictly below n^p
    even = compare_families(
        expand_ep(family_of("gprime", a=HALF), 2), expand_ep(family_of("gstar", a=HALF), 2)
    )
    assert even.dominant == "first"
    assert even.difference.degree < 2


def test_each_claim_expands_each_family_once(monkeypatch):
    # a claim compares the expansions it already holds, so at its defaults
    # it makes one expand_ep call per family it reads and no other
    from degpow import asymptotics, claims

    calls = []

    def counted(family, p):
        calls.append(family.name)
        return expand_ep(family, p)

    for module in (asymptotics, claims):
        monkeypatch.setattr(module, "expand_ep", counted)
    expected = {
        "leading-coeff": ["gprime", "gstar", "kbip"],
        "np-coeff": ["gprime", "gstar", "kbip"],
        "case31": ["case31"],
        "case33": ["case33", "t2even"],
        "case4": ["case4eq2", "case4eq3"],
    }
    for cid in claims.CLAIMS:
        calls.clear()
        assert run_claim(cid)["pass"], cid
        assert sorted(calls) == expected.get(cid, []), cid
