"""Show that the benchmark's checks can fail.

Run from the repository root:

    python3 benchmarks/selftest.py

Each oracle first gets a real program output, which it must accept, and then
corrupted copies of it, each of which it must reject.  Exits 1 if any correct
output is rejected or any corrupted one accepted.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import networkx as nx  # noqa: E402
from degpow import asymptotics, cli, search  # noqa: E402
from degpow.claims import run_claim  # noqa: E402

import oracles as o  # noqa: E402
import workloads as wl  # noqa: E402

WORK = ROOT / ".bench_build" / "degpow" / "selftest"
results: list[tuple[str, bool]] = []


def expect(name: str, problems, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    results.append((name, ok))
    state = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {state}" + (f" ({problems[0]})" if problems else ""))


def cli_payload(argv: list[str]) -> dict:
    out = WORK / "payload.json"
    code = cli.main([*argv, "--out", str(out)])
    if code not in (0, 1):
        raise SystemExit(f"degpow {' '.join(argv)} exited {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def with_c5(graph6: str) -> str:
    g = o.decode(graph6)
    g.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def judged(rep: dict) -> list[str]:
    """Problems, counting a pass the oracle rejects and an unexpected fail."""
    expected, problems = wl.judge_report(rep, random.Random(0))
    if rep["pass"] != expected:
        problems = problems + [f"verdict {rep['pass']}, oracle expects {expected}"]
    return problems


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        atlas = o.classes_up_to(7)
        for n in range(1, 8):
            expect(f"atlas n={n} agrees with the fixture", o.fixture_problems(atlas, n), False)
        expect("extension to n=8 agrees with the fixture", o.fixture_problems(o.classes_up_to(8), 8), False)

        # search at n = 7 against the atlas
        n, p = 7, 2
        value = atlas.ex_p(n, p)[0]
        pay = cli_payload(["search", "--n", str(n), "--p", str(p)])
        check = lambda pl: o.check_search_payload(pl, atlas, n, p)  # noqa: E731
        expect("search n=7: program output", check(pay), False)
        bad = copy.deepcopy(pay)
        bad["ex_p"] = str(value - 1)
        expect("search: value - 1", check(bad), True)
        bad = copy.deepcopy(pay)
        bad["visited"] += 1
        expect("search: labeled count + 1", check(bad), True)
        bad = copy.deepcopy(pay)
        bad["maximizers"][0]["graph6"] = with_c5(bad["maximizers"][0]["graph6"])
        expect("search: maximizer with a 5-cycle added",
               [x for x in check(bad) if "5-cycle" in x], True)
        bad = copy.deepcopy(pay)
        bad["maximizers"][0]["biclique"] = [1, n - 1]
        expect("search: wrong biclique field", check(bad), True)
        bad = copy.deepcopy(pay)
        bad["maximizers"].pop()
        expect("search: dropped maximizer class", check(bad), True)

        # sweep n = 4..6 against the atlas; drop a class where there are several
        ps = [1, 2, 3]
        pay = cli_payload(["sweep", "--n-min", "4", "--n-max", "6", "--p", *map(str, ps)])
        check = lambda pl: o.check_sweep_payload(pl, atlas, range(4, 7), ps)  # noqa: E731
        expect("sweep n=4..6: program output", check(pay), False)
        bad = copy.deepcopy(pay)
        row = next(r for r in bad["report"] if len(r["maximizer_classes"]) > 1)
        row["maximizer_classes"].pop()
        expect(f"sweep: dropped maximizer class at n={row['n']} p={row['p']}", check(bad), True)
        bad = copy.deepcopy(pay)
        bad["report"][-1]["ex_p"] = str(int(bad["report"][-1]["ex_p"]) + 1)
        expect("sweep: value + 1", check(bad), True)

        # validator sweeps at n = 6
        res = search.sweep_observations(6)
        out = {"graphs": res.graphs, "pairs_checked": res.pairs_checked, "violations": list(res.violations)}
        expect("sweep_observations n=6: program output", o.check_sweep_result(out, "observations", 6, atlas), False)
        bad = dict(out, violations=["E?~w u=0: injected"])
        expect("sweep_observations: one violation", o.check_sweep_result(bad, "observations", 6, atlas), True)
        bad = dict(out, pairs_checked=out["pairs_checked"] - 1)
        expect("sweep_observations: pair count - 1", o.check_sweep_result(bad, "observations", 6, atlas), True)
        bad = dict(out, graphs=out["graphs"] + 1)
        expect("sweep_observations: graph count + 1", o.check_sweep_result(bad, "observations", 6, atlas), True)

        # expansions and coefficient claims
        a = Fraction(5, 8)
        fam = asymptotics.family_of("gstar", a=a)
        coeffs = [str(c) for c in asymptotics.expand_ep(fam, 5).coeffs]
        expect("expand_ep gstar p=5: program output", o.check_expansion(coeffs, fam, 5, "expand_ep"), False)
        bad = list(coeffs)
        bad[2] = str(Fraction(bad[2]) + Fraction(1, 2 ** 30))
        expect("expand_ep: coefficient off by 1/2^30", o.check_expansion(bad, fam, 5, "expand_ep"), True)
        for cid, key, params in (
            ("leading-coeff", "gprime", {"a": a}),
            ("np-coeff", "gstar_np", {"a": a}),
            ("case4", "eq2_np", {"a": a, "x": 2, "y": 1}),
            ("case31", "leading", {"a": a, "y": Fraction(1, 8)}),
        ):
            rep = run_claim(cid, p=6, **params)
            expect(f"{cid} p=6: program output", judged(rep), False)
            bad = copy.deepcopy(rep)
            bad["witness"][key] = str(Fraction(bad["witness"][key]) + Fraction(1, 2 ** 40))
            expect(f"{cid}: {key} off by 1/2^40", judged(bad), True)
        rep = run_claim("f-positivity", p=4, step=Fraction(1, 64))
        expect("f-positivity p=4: program output", judged(rep), False)
        bad = copy.deepcopy(rep)
        bad["witness"]["min"] = str(Fraction(bad["witness"]["min"]) * 2)
        expect("f-positivity: minimum doubled", judged(bad), True)
        bad = copy.deepcopy(rep)
        bad["witness"]["grid_points"] += 1
        expect("f-positivity: grid points + 1", judged(bad), True)

        # split constant, best split and the split-match verdict
        for p in (4, 7):
            c = asymptotics.optimize_c(p)
            expect(f"optimize_c p={p}: program output", o.check_c(c, p, "optimize_c"), False)
            expect(f"optimize_c p={p}: c + 1e-7", o.check_c(c + 1e-7, p, "optimize_c"), True)
        b, v = asymptotics.best_biclique_split(1000, 6)
        expect("best_biclique_split n=1000 p=6: program output", o.check_split(b, v, 1000, 6, "split"), False)
        expect("best_biclique_split: value - 1", o.check_split(b, v - 1, 1000, 6, "split"), True)
        expect("best_biclique_split: b - 1", o.check_split(b - 1, v, 1000, 6, "split"), True)
        rep = run_claim("split-match", p=6, n=10)
        expect("split-match p=6 n=10: honest fail", judged(rep), False)
        bad = copy.deepcopy(rep)
        bad["pass"] = True
        expect("split-match p=6 n=10: pass claimed", judged(bad), True)
        rep = run_claim("optimizer", p=4, tol=1e-12)
        expect("optimizer p=4 tol=1e-12: witness c is right", wl.judge_report(rep, random.Random(0))[1], False)

        # construct + epow against the built graph
        op = wl.construction_op("gstar:n=24,d=13", WORK)
        codes, g6, eps = op.keep(op.call())
        expect("construct+epow gstar: program output", op.check((codes, g6, eps))[1], False)
        bad = list(eps)
        bad[3] = str(int(bad[3]) + 1)
        expect("construct+epow: e_p + 1", op.check((codes, g6, bad))[1], True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failures = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failures)} of {len(results)} self-test cases behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
