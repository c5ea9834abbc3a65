"""Symbolic power-sum expansions of the competing extremal families.

For a fixed split ratio a, expand e_p as an exact polynomial in n for the
plain complete bipartite split and for the two hub variants (pendant gadgets
with the far side independent, or rewired through two gate vertices).  All
three share the same n^{p+1} coefficient; the hub variants then shed a
strictly positive multiple of n^p, so the plain split wins every time.

Which hub variant beats the OTHER one is genuinely parameter-dependent,
and the script prints a flip to prove it.
"""

from fractions import Fraction

from degpow.asymptotics import (
    compare_families,
    expand_ep,
    family_of,
    leading_coefficient,
)


def main() -> int:
    polys = {
        (a, p, name): expand_ep(family_of(name, a=a), p)
        for a, p in ((Fraction(1, 2), 2), (Fraction(3, 5), 2), (Fraction(3, 5), 5))
        for name in ("kbip", "gprime", "gstar")
    }
    for a in (Fraction(1, 2), Fraction(3, 5)):
        p = 2
        print(f"split ratio a = {a}, p = {p}")
        for name in ("kbip", "gprime", "gstar"):
            print(f"  {name:6s} e_{p} = {polys[a, p, name]!r}")
        lead = leading_coefficient(a, p)
        print(f"  shared n^{p + 1} coefficient: {lead}")
        gp = polys[a, p, "gprime"].coefficient(p)
        gs = polys[a, p, "gstar"].coefficient(p)
        kb = polys[a, p, "kbip"].coefficient(p)
        print(f"  n^{p} coefficients: gprime {gp}, gstar {gs}, kbip {kb}")
        for other in ("gprime", "gstar"):
            cmp_result = compare_families(polys[a, p, "kbip"], polys[a, p, other])
            print(
                f"  kbip vs {other}: {cmp_result.dominant} dominates "
                f"for all n >= {cmp_result.threshold}"
            )
        print()

    a = Fraction(3, 5)
    print(f"hub variants against each other at a = {a}: the order flips with p")
    for p in (2, 5):
        cmp_result = compare_families(polys[a, p, "gprime"], polys[a, p, "gstar"])
        gp = polys[a, p, "gprime"].coefficient(p)
        gs = polys[a, p, "gstar"].coefficient(p)
        winner = {"first": "gprime", "second": "gstar"}[cmp_result.dominant]
        print(f"  p={p}: n^{p} coefficients {gp} vs {gs} -> {winner} wins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
