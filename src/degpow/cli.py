"""Command-line front end: constructions, searches, verification, optimizer.

Every command writes machine-readable output (JSON, CSV, or graph6) and is
byte-reproducible for identical flags; wall-clock timings live in the
designated elapsed_ms field and nowhere else.  Exit codes: 0 success or pass,
1 verification failure, 2 usage or validation error or an --out path that
cannot be written, 3 capacity exceeded.

Imports are deferred.  Each handler imports the engine names it uses from
their home modules when it runs, and main imports CapacityError only after
parsing, so `--help` loads no engine module and each command loads only the
modules it runs; where no bytecode cache is written, every start compiles
what it loads.  Three engine names stay readable as degpow.cli.<name>
through the module __getattr__ below: search_extremal and optimize_c,
which benchmarks/layers.py wraps there, and CapacityError.  The handlers
call whatever the home module holds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import import_module
from typing import Optional, Sequence

_HOME = {"optimize_c": "asymptotics", "CapacityError": "graphs", "search_extremal": "search"}


def __getattr__(name: str):
    """An engine name, read from its home module on every access, so it is
    the object that module holds now."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{module}"), name)


def _canonical_spec(spec) -> str:
    from dataclasses import astuple

    from .constructions import _SPEC_SHAPES, spec_name

    name = spec_name(spec)
    keys, _ = _SPEC_SHAPES[name]
    return name + ":" + ",".join(f"{k}={v}" for k, v in zip(keys, astuple(spec)))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _rational(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _p_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a p range: {text!r} (want P or LO..HI)") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty p range {text!r}")
    if lo < 1:
        raise argparse.ArgumentTypeError(f"exponents must be >= 1, got {lo}")
    return list(range(lo, hi + 1))


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"worker count must be >= 1, got {count}")
    return count


_STATS_HELP = "print search counters and phase times as one JSON line on stderr"
_WORKERS_HELP = "accepted for older command lines; the search runs in one process"


def _emit_stats(stats) -> None:
    if stats is not None:
        from dataclasses import asdict

        print(json.dumps(asdict(stats)), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degpow",
        description="degree power sums over C5-free graphs: construct, search, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a named graph or its degree profile")
    p_construct.add_argument("spec", help="construction string, e.g. gprime:n=20,d=10")
    p_construct.add_argument("--format", choices=("graph6", "json"), default="graph6")
    p_construct.add_argument("--out", default=None)

    p_epow = sub.add_parser("epow", help="degree power sum of a construction from its profile")
    p_epow.add_argument("spec")
    p_epow.add_argument("--p", type=int, required=True)
    p_epow.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="exact ex_p over C5-free graphs at order n")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument("--workers", type=_worker_count, default=1, help=_WORKERS_HELP)
    p_search.add_argument("--force", action="store_true")
    p_search.add_argument("--stats", action="store_true", help=_STATS_HELP)
    p_search.add_argument("--out", default=None)

    p_opt = sub.add_parser("optimize-c", help="the split constant c(p) as a CSV table")
    p_opt.add_argument("--p", type=_p_range, required=True, metavar="P|LO..HI")
    p_opt.add_argument("--tol", type=float, default=1e-9)
    p_opt.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run one named claim, or all of them")
    # listing the claim ids here would load the claims module and the
    # engine below it for every --help; an unknown id lists them instead
    p_verify.add_argument("claim", help="claim id, or 'all' for every claim")
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--a", type=_rational, default=None)
    p_verify.add_argument("--y", type=_rational, default=None)
    p_verify.add_argument("--x", type=_rational, default=None)
    p_verify.add_argument("--step", type=_rational, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--d", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="maximizer classification over an (n, p) grid")
    p_sweep.add_argument("--n-min", type=int, default=4)
    p_sweep.add_argument("--n-max", type=int, default=8)
    p_sweep.add_argument("--p", type=int, nargs="+", default=[1, 2, 3])
    p_sweep.add_argument("--workers", type=_worker_count, default=1, help=_WORKERS_HELP)
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.add_argument("--stats", action="store_true", help=_STATS_HELP)
    p_sweep.add_argument("--out", default=None)

    return parser


def _cmd_construct(args) -> int:
    from .constructions import build, degree_profile, parse_spec
    from .graphs import to_graph6

    spec = parse_spec(args.spec)
    if args.format == "graph6":
        _emit(to_graph6(build(spec)) + "\n", args.out)
        return 0
    profile = degree_profile(spec)
    payload = {
        "spec": _canonical_spec(spec),
        "order": profile.order,
        "profile": [
            {"degree": d, "count": c}
            for d, c in sorted(profile.counter().items(), reverse=True)
        ],
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_epow(args) -> int:
    from .constructions import degree_profile, parse_spec

    spec = parse_spec(args.spec)
    profile = degree_profile(spec)
    value = profile.power_sum(args.p)
    payload = {
        "spec": _canonical_spec(spec),
        "order": profile.order,
        "p": args.p,
        "e_p": str(value),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_search(args) -> int:
    from .search import SearchStats, search_extremal

    stats = SearchStats() if args.stats else None
    start = time.perf_counter()
    result = search_extremal(args.n, [args.p], force=args.force, stats=stats)[args.p]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    payload = {
        "n": result.n,
        "p": result.p,
        "ex_p": str(result.value),
        "maximizers": [
            {
                "graph6": rec.canonical.decode("ascii"),
                "biclique": list(rec.biclique) if rec.biclique else None,
                "max_degree": rec.max_degree,
            }
            for rec in result.maximizers
        ],
        "visited": result.visited,
        "elapsed_ms": elapsed_ms,
    }
    _emit_json(payload, args.out)
    _emit_stats(stats)
    return 0


def _cmd_optimize_c(args) -> int:
    from .asymptotics import optimize_c, split_objective

    lines = ["p,c,f_c"]
    for p in args.p:
        c = optimize_c(p, args.tol)
        lines.append(f"{p},{c!r},{split_objective(c, p)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    from .claims import run_all, run_claim

    params = {
        "p": args.p,
        "a": args.a,
        "y": args.y,
        "x": args.x,
        "step": args.step,
        "n": args.n,
        "d": args.d,
        "tol": args.tol,
    }
    if args.claim == "all":
        foreign = [k for k, v in params.items() if v is not None and k != "p"]
        if foreign:
            raise ValueError(f"verify all takes only --p, got --{' --'.join(foreign)}")
        reports = run_all(**({"p": args.p} if args.p is not None else {}))
        passed = all(r["pass"] for r in reports)
        _emit_json({"claim": "all", "pass": passed, "reports": reports}, args.out)
        return 0 if passed else 1
    report = run_claim(args.claim, **params)
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_sweep(args) -> int:
    from .search import SearchStats, classification_report

    if args.n_min < 0 or args.n_min > args.n_max:
        raise ValueError(f"need 0 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    stats = SearchStats() if args.stats else None
    ps = list(dict.fromkeys(args.p))  # each exponent once, as in the report
    start = time.perf_counter()
    report = classification_report(
        range(args.n_min, args.n_max + 1),
        ps,
        force=args.force,
        stats=stats,
    )
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    payload = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "p_values": ps,
        "report": report,
        "elapsed_ms": elapsed_ms,
    }
    _emit_json(payload, args.out)
    _emit_stats(stats)
    return 0


_DISPATCH = {
    "construct": _cmd_construct,
    "epow": _cmd_epow,
    "search": _cmd_search,
    "optimize-c": _cmd_optimize_c,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    from .graphs import CapacityError

    try:
        return _DISPATCH[args.command](args)
    except CapacityError as exc:
        print(f"degpow: capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"degpow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
