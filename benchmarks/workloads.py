"""The benchmark's three workloads, each one round of operations.

A round is always the same operations in the same order; a run repeats whole
rounds.  An operation calls one public entry point of the program (CLI
commands run in-process through degpow.cli.main with --out) and keeps its
output.  Its check runs after timing has stopped and compares the output with
an independent oracle from oracles.py, which is imported only then so that
networkx stays out of the measured process's memory.

A check returns (reported_failure, problems): reported_failure is the program
saying "fail" (exit 1, "pass": false) where the oracle expects a pass;
problems are outputs that disagree with the oracle.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from degpow import asymptotics, claims, cli, search

WORKLOADS = ("search-n8", "sweeps-n7", "verify-claims")
CLAIM_PS = range(2, 9)
SWEEP_PS = range(1, 9)

OPTIMIZER_FAULT = (
    "optimize_c's float64 golden-section search places the argmax only to about 4e-9, "
    "so the claim's own |c - closed| <= 10*tol check fails for tol <= 1e-10"
)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, list[str]]]
    keep: Callable[[object], object] = lambda raw: raw
    known_fault: Optional[str] = None


class Raised:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def call(op: Op):
    try:
        return op.call()
    except Exception as exc:  # reported as a failed operation, the run goes on
        return Raised(exc)


def keep(op: Op, raw):
    return raw if isinstance(raw, Raised) else op.keep(raw)


def check(op: Op, out) -> tuple[bool, list[str]]:
    if isinstance(out, Raised):
        return True, [f"{op.label}: raised {out.text}"]
    try:
        return op.check(out)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        return True, [f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"]


def verdict(label: str, passed: bool, expected: bool, problems: list[str]) -> tuple[bool, list[str]]:
    if passed and not expected:
        problems = problems + [f"{label}: reports a pass the oracle rejects"]
    return (not passed and expected), problems


# ---------------------------------------------------------------------------
# operation builders

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def cli_op(label: str, argv: list[str], workdir: Path, judge, known_fault=None) -> Op:
    """A CLI command; judge(payload) gives (expected pass, problems)."""
    path = workdir / (re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") + ".json")

    def run():
        return cli.main([*argv, "--out", str(path)])

    def read(code):
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        path.unlink(missing_ok=True)
        return code, _ELAPSED.sub('"elapsed_ms": 0', text)

    def judged(out):
        code, text = out
        if code not in (0, 1):
            return True, [f"{label}: exit code {code}"]
        expected, problems = judge(json.loads(text))
        return verdict(label, code == 0, expected, problems)

    return Op(label, run, judged, read, known_fault)


def report_op(label: str, claim_id: str, rng: random.Random, **params) -> Op:
    def judged(rep):
        expected, problems = judge_report(rep, rng)
        return verdict(label, rep["pass"], expected, problems)

    return Op(label, lambda: claims.run_claim(claim_id, **params), judged)


# ---------------------------------------------------------------------------
# judges


def judge_report(rep: dict, rng: random.Random) -> tuple[bool, list[str]]:
    """Oracle verdict and witness problems for one claim report."""
    import oracles as o

    cid, p, params, w = rep["claim"], rep["p"], rep["params"], rep["witness"]
    where = f"{cid} p={p} {params}"
    fam = lambda name, **kw: o.family_poly(asymptotics.family_of(name, **kw), p)  # noqa: E731
    problems: list[str] = []
    expected = True
    if cid == "optimizer":
        problems += o.check_c(w["c"], p, where)
    elif cid == "split-match":
        n, b = params["n"], w["b"]
        problems += o.check_split(b, int(w["e_p"]), n, p, where)
        problems += o.check_c(w["c"], p, where)
        closed = o.c_closed_form(p)
        c = closed if closed is not None else float(sum(o.c_bracket(p)) / 2)
        expected = abs(b / n - c) < 1e-2
    elif cid == "f-positivity":
        step = Fraction(params["step"])
        a, y = (Fraction(t) for t in w["argmin"])
        if Fraction(w["min"]) != o.f_gap(a, y, p):
            problems.append(f"{where}: min {w['min']} is not f at the argmin")
        if w["grid_points"] != o.f_grid_size(step):
            problems.append(f"{where}: {w['grid_points']} grid points, expected {o.f_grid_size(step)}")
        for _ in range(64):  # the reported minimum bounds seeded grid points
            ak = Fraction(1, 2) + rng.randrange(int(Fraction(1, 2) / step)) * step
            yk = step * rng.randint(1, int((1 - ak) / step))
            if o.f_gap(ak, yk, p) < Fraction(w["min"]):
                problems.append(f"{where}: f({ak}, {yk}) is below the reported minimum")
                break
    elif cid == "leading-coeff":
        a = Fraction(params["a"])
        lead = o.leading(a, p)
        for key in ("expected", "gprime", "gstar", "kbip"):
            if Fraction(w[key]) != lead:
                problems.append(f"{where}: {key} {w[key]}, expected {lead}")
    elif cid == "np-coeff":
        a = params["a"]
        for key, name in (("gprime_np", "gprime"), ("gstar_np", "gstar"), ("split_np", "kbip")):
            want = o.coeff(fam(name, a=a), p)
            if Fraction(w[key]) != want:
                problems.append(f"{where}: {key} {w[key]}, expected {want}")
    elif cid == "case31":
        a, y = Fraction(params["a"]), Fraction(params["y"])
        want = o.coeff(fam("case31", a=a, y=y), p + 1)
        if Fraction(w["leading"]) != want or Fraction(w["f"]) != o.f_gap(a, y, p) or not w["gap_identity"]:
            problems.append(f"{where}: witness {w} disagrees with leading {want}, f {o.f_gap(a, y, p)}")
    elif cid == "case32":
        for a_text, value in w["coefficients"].items():
            a = Fraction(a_text)
            if Fraction(value) != (1 - a) ** p - a ** p:
                problems.append(f"{where}: coefficient at a={a_text} is {value}")
    elif cid == "case33":
        a = Fraction(params["a"])
        want = o.coeff(fam("case33", a=a), p + 1)
        t2 = o.coeff(fam("t2even"), p + 1)
        if Fraction(w["leading"]) != want or want != (1 - a) ** (p + 1) or Fraction(w["t2_leading"]) != t2:
            problems.append(f"{where}: witness {w} disagrees with leading {want}, t2 {t2}")
    elif cid == "case4":
        a, x, y = (Fraction(params[k]) for k in ("a", "x", "y"))
        wants = {
            "eq2_np": o.coeff(fam("case4eq2", a=a, x=x, y=y), p),
            "eq3_np": o.coeff(fam("case4eq3", a=a, x=x), p),
            "gstar_np": o.coeff(fam("gstar", a=a), p),
        }
        for key, want in wants.items():
            if Fraction(w[key]) != want:
                problems.append(f"{where}: {key} {w[key]}, expected {want}")
        if not w["shared_leading"]:
            problems.append(f"{where}: shared_leading is false")
    return expected, problems


def judge_all(rng: random.Random):
    def judge(payload):
        expected, problems = True, []
        for rep in payload["reports"]:
            exp, probs = judge_report(rep, rng)
            problems += probs
            if rep["pass"] and not exp:
                problems.append(f"{rep['claim']} p={rep['p']}: reports a pass the oracle rejects")
            expected = expected and exp
        if len(payload["reports"]) != len(claims.CLAIMS):
            problems.append(f"verify all: {len(payload['reports'])} reports, expected {len(claims.CLAIMS)}")
        return expected, problems

    return judge


def judge_search(n: int, p: int):
    def judge(payload):
        import oracles as o

        oracle = o.classes_up_to(n)
        return True, o.fixture_problems(oracle, n) + o.check_search_payload(payload, oracle, n, p)

    return judge


def judge_sweep(n_values, p_values):
    def judge(payload):
        import oracles as o

        return True, o.check_sweep_payload(payload, o.classes_up_to(7), n_values, p_values)

    return judge


# ---------------------------------------------------------------------------
# the workloads


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the named workload; the seed fixes every sampled input."""
    rng = random.Random(seed)
    if name == "search-n8":
        argv = ["search", "--n", "8", "--p", "2", "--workers", "2"]
        return [cli_op("search n=8 p=2 workers=2", argv, workdir, judge_search(8, 2))]
    if name == "sweeps-n7":
        return sweep_ops(sweep_order(seed), workdir)
    if name == "verify-claims":
        return claim_ops(rng, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def sweep_order(seed: int) -> list[int]:
    """The seed orders the sweep's exponent list; the work does not change."""
    return random.Random(seed).sample(list(SWEEP_PS), len(SWEEP_PS))


def sweep_ops(ps: list[int], workdir: Path) -> list[Op]:
    argv = ["sweep", "--n-min", "4", "--n-max", "7", "--p", *map(str, ps), "--workers", "2"]
    ops = [cli_op("sweep n=4..7 p=1..8 workers=2", argv, workdir, judge_sweep(range(4, 8), ps))]
    for kind, fn in (
        ("validity", "sweep_neighborhood_validity"),
        ("observations", "sweep_observations"),
        ("completion", "sweep_bipartite_completion"),
    ):
        ops.append(Op(
            f"{fn} n=7",
            lambda fn=fn: getattr(search, fn)(7),
            lambda out, kind=kind: (False, _check_sweep_result(out, kind)),
            lambda res: {"graphs": res.graphs, "pairs_checked": res.pairs_checked,
                         "violations": list(res.violations)},
        ))
    return ops


def _check_sweep_result(out: dict, kind: str) -> list[str]:
    import oracles as o

    return o.check_sweep_result(out, kind, 7, o.classes_up_to(7))


def coefficient_grid(rng: random.Random, size: int = 3) -> list[dict]:
    """Seeded rationals a in [1/2, 1) with y in (0, 1-a] and gate sizes x, y."""
    grid = []
    for _ in range(size):
        d = rng.randint(3, 64)
        a = Fraction(rng.randint((d + 1) // 2, d - 1), d)
        grid.append({
            "a": a,
            "y": (1 - a) * Fraction(rng.randint(1, 4), 4),
            "gx": Fraction(rng.randint(1, 3)),
            "gy": Fraction(rng.randint(1, 3)),
        })
    return grid


def claim_ops(rng: random.Random, workdir: Path) -> list[Op]:
    grid = coefficient_grid(rng)
    split_ns = [rng.randint(2, 10 ** 4) for _ in range(3)]
    cn = rng.randint(20, 48)
    specs = [f"gprime:n={cn},d={rng.randint(cn // 2, cn - 5)}", f"gstar:n={cn},d={rng.randint(cn // 2, cn - 5)}"]
    families = [("t2even", {}), ("t2odd", {})]
    for g in grid:
        a = g["a"]
        families += [
            ("gprime", {"a": a}), ("gstar", {"a": a}), ("kbip", {"a": a}),
            ("case31", {"a": a, "y": g["y"]}), ("case33", {"a": a}),
            ("case4eq2", {"a": a, "x": g["gx"], "y": g["gy"]}), ("case4eq3", {"a": a, "x": g["gx"]}),
        ]
    single = lambda payload: judge_report(payload, rng)  # noqa: E731
    ops: list[Op] = []
    for p in CLAIM_PS:
        sp = str(p)
        ops.append(cli_op(f"verify all p={p}", ["verify", "all", "--p", sp], workdir, judge_all(rng)))
        ops.append(cli_op(f"verify f-positivity p={p} step=1/2048",
                          ["verify", "f-positivity", "--p", sp, "--step", "1/2048"], workdir, single))
        for n in (10 ** 5, 10 ** 6):
            ops.append(cli_op(f"verify split-match p={p} n={n}",
                              ["verify", "split-match", "--p", sp, "--n", str(n)], workdir, single))
        ops.append(cli_op(f"verify optimizer p={p} tol=1e-12",
                          ["verify", "optimizer", "--p", sp, "--tol", "1e-12"], workdir, single,
                          known_fault=OPTIMIZER_FAULT if p in (4, 5) else None))
        for g in grid:
            a, tag = g["a"], f"p={p} a={g['a']}"
            ops += [
                report_op(f"claim leading-coeff {tag}", "leading-coeff", rng, p=p, a=a),
                report_op(f"claim np-coeff {tag}", "np-coeff", rng, p=p, a=a),
                report_op(f"claim case31 {tag} y={g['y']}", "case31", rng, p=p, a=a, y=g["y"]),
                report_op(f"claim case32 {tag}", "case32", rng, p=p, a=a),
                report_op(f"claim case33 {tag}", "case33", rng, p=p, a=a),
                report_op(f"claim case4 {tag} x={g['gx']} y={g['gy']}", "case4", rng,
                          p=p, a=a, x=g["gx"], y=g["gy"]),
            ]
        ops.append(Op(f"optimize_c p={p}", lambda p=p: asymptotics.optimize_c(p),
                      lambda c, p=p: (False, _oracle().check_c(c, p, f"optimize_c p={p}"))))
        for n in split_ns:
            ops.append(Op(f"best_biclique_split n={n} p={p}",
                          lambda n=n, p=p: asymptotics.best_biclique_split(n, p),
                          lambda bv, n=n, p=p: (False, _oracle().check_split(*bv, n, p, f"split n={n} p={p}"))))
        for name, params in families:
            family = asymptotics.family_of(name, **params)
            label = f"expand_ep {name}{params} p={p}"
            ops.append(Op(label, lambda f=family, p=p: asymptotics.expand_ep(f, p),
                          lambda cs, f=family, p=p, label=label: (False, _oracle().check_expansion(cs, f, p, label)),
                          lambda poly: [str(c) for c in poly.coeffs]))
    ops.append(cli_op("verify split-match p=6 n=10", ["verify", "split-match", "--p", "6", "--n", "10"],
                      workdir, single))
    for spec in specs:
        ops.append(construction_op(spec, workdir))
    return ops


def construction_op(spec: str, workdir: Path) -> Op:
    """`construct` the graph, then `epow` at every claim exponent."""
    label = f"construct+epow {spec}"
    base = workdir / re.sub(r"[^A-Za-z0-9]+", "_", spec)

    def run():
        codes = [cli.main(["construct", spec, "--out", f"{base}.g6"])]
        for p in CLAIM_PS:
            codes.append(cli.main(["epow", spec, "--p", str(p), "--out", f"{base}.p{p}.json"]))
        return codes

    def read(codes):
        g6 = Path(f"{base}.g6").read_text(encoding="utf-8")
        eps = [json.loads(Path(f"{base}.p{p}.json").read_text(encoding="utf-8"))["e_p"] for p in CLAIM_PS]
        return codes, g6, eps

    def judged(out):
        import oracles as o

        codes, g6, eps = out
        g = o.decode(g6.strip())
        problems = [f"{label}: e_{p} {e}, the built graph gives {o.power_sum(g, p)}"
                    for p, e in zip(CLAIM_PS, eps) if int(e) != o.power_sum(g, p)]
        return any(codes), problems

    return Op(label, run, judged, read)


def _oracle():
    import oracles

    return oracles
