"""The split constant c(p) and how fast integer splits reach it.

c(p) maximizes f(x) = x(1-x)^p + x^p(1-x) on [1/2, 1]: the asymptotic
proportion of the larger side of the extremal complete bipartite graph.
Up to p = 3 the even split wins; from p = 4 on the maximum moves out and
the closed forms below pin the first two cases.

The second table takes an actual order (n = 10^4 by default), finds the
exact best integer split K_{b,n-b} with best_biclique_split, and shows b/n
landing within 10^-2 of c(p).
"""

import math
import sys

from degpow.asymptotics import best_biclique_split, optimize_c, split_objective

CLOSED_FORMS = {
    1: ("1/2", 0.5),
    2: ("1/2", 0.5),
    3: ("1/2", 0.5),
    4: ("(1+3^-1/2)/2", (1 + 3 ** -0.5) / 2),
    5: ("via t*=(4-sqrt(10))/6", (1 + math.sqrt(1 - 4 * (4 - math.sqrt(10)) / 6)) / 2),
}


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10 ** 4
    print("p   c(p)                f(c(p))             closed form")
    for p in range(1, 9):
        c = optimize_c(p)
        label, value = CLOSED_FORMS.get(p, ("", None))
        mark = f"  {label} = {value:.12f}" if label else ""
        print(f"{p}   {c:.12f}      {split_objective(c, p):.12f}{mark}")
    print()

    print(f"best integer split of K_(b,n-b) at n = {n}")
    print("p   b*      b*/n      c(p)            |b*/n - c(p)|")
    for p in (2, 4, 6):
        best_b, _ = best_biclique_split(n, p)
        c = optimize_c(p)
        ratio = best_b / n
        print(f"{p}   {best_b}    {ratio:.4f}    {c:.10f}    {abs(ratio - c):.2e}")
    print()
    print("the deviation scales like 1/n: integer rounding of the class sizes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
