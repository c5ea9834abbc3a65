"""Exhaustive search story at desk scale.

Runs the exact ex_p search for small n and shows what the maximizers look
like: dense books and cliques win at the very small orders, and the complete
bipartite shape only starts to take over around n = 8.  The asymptotic
statement is invisible down here, which is exactly the point of printing it.

Usage: python3 demos/small_order_search.py [N_MAX]
N_MAX defaults to 7 and may go up to 11, the search cap; each order up to
9 takes well under a second.
"""

import sys
import time

from degpow.search import max_degree_ratio, search_extremal


def describe(rec):
    if rec.biclique:
        a, b = rec.biclique
        return f"K_{{{a},{b}}}"
    return f"{rec.canonical.decode('ascii')} (Delta={rec.max_degree}, m={rec.edge_count})"


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    ps = [1, 2, 3]
    print(f"exact ex_p(n, C5) for n <= {n_max}, p in {ps}")
    print()
    for n in range(4, n_max + 1):
        start = time.perf_counter()
        results = search_extremal(n, ps)
        elapsed = time.perf_counter() - start
        visited = results[ps[0]].visited
        print(f"n={n}: {visited} labeled C5-free graphs ({elapsed:.1f} s)")
        for p in ps:
            res = results[p]
            shapes = ", ".join(describe(rec) for rec in res.maximizers)
            ratios = ", ".join(str(r) for r in max_degree_ratio(res))
            print(f"  p={p}: ex_p = {res.value:>5}  maximizers: {shapes}  Delta/n: {ratios}")
        print()
    print("dense low-order winners are expected; the bipartite split is an")
    print("asymptotic statement and only begins to show at the top of this range")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
