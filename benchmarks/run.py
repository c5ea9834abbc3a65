"""degpow benchmark: search-n8, sweeps-n7 and verify-claims.

Run from the repository root:

    python3 benchmarks/run.py --workload sweeps-n7 --seed 1 --seconds 20 --trace 0

With --trace 0 it repeats whole rounds of the workload for about --seconds
(never starting a round it expects to end later) and reports the end-to-end
metrics; with --trace 1 it runs one round with
spans around every layer call plus the single-layer passes, and reports the
per-layer metrics.  Either way every output is checked against an independent
oracle.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  Scratch files go under .bench_build/ in the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            if (git / name).is_file():
                return (git / name).read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_s() -> float:
    """Median wall time for a fresh interpreter to import degpow.cli, build
    its parser and print the help (`python3 -m degpow --help`)."""
    env = program_env()
    times = []
    for i in range(SETUP_RUNS + 1):  # the first run writes bytecode caches
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would quantize the measurement
        subprocess.run([sys.executable, "-m", "degpow", "--help"], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def judge_rounds(wl, ops, rounds: list[list]) -> tuple[int, list[str], list[str]]:
    """Check every round's outputs; an output equal to round 1's reuses
    round 1's verdict.  Returns failed count, problems, failed labels."""
    first = [wl.check(op, out) for op, out in zip(ops, rounds[0])]
    failed = 0
    problems: list[str] = []
    failed_labels: list[str] = []
    for r, outs in enumerate(rounds):
        for i, (op, out) in enumerate(zip(ops, outs)):
            same = out == rounds[0][i]
            reported, probs = first[i] if same else wl.check(op, out)
            if r == 0 or not same:
                problems += probs
                if not same:
                    problems.append(f"round {r + 1}: output of {op.label} differs from round 1")
                if reported and not op.known_fault:
                    problems.append(f"{op.label}: reports a failure the oracle does not expect")
            if reported:
                failed += 1
                if r == 0:
                    failed_labels.append(op.label)
    return failed, problems, failed_labels


def timed_run(wl, args, workdir: Path) -> dict:
    ops = wl.build(args.workload, args.seed, workdir)
    walls, cpus, rounds = [], [], []
    start = time.perf_counter()
    # at least one round; another only if it should end within --seconds
    while not rounds or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        t0, c0 = time.perf_counter(), cpu_now()
        raws = [wl.call(op) for op in ops]
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_now() - c0)
        rounds.append([wl.keep(op, raw) for op, raw in zip(ops, raws)])
    rss = peak_rss_mb()
    setup = setup_s()
    failed, problems, failed_labels = judge_rounds(wl, ops, rounds)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    detail = {"rounds": len(rounds), "round_wall_s": walls, "round_cpu_s": cpus}
    return result(ops, len(rounds), failed, problems, failed_labels, metrics, detail)


def traced_run(wl, args, workdir: Path) -> dict:
    import layers
    from tracing import Tracer, span_cost_s

    ops = wl.build(args.workload, args.seed, workdir)
    tracer = Tracer()
    wall, raws = layers.traced_round(ops, tracer)
    outputs = [wl.keep(op, raw) for op, raw in zip(ops, raws)]
    failed, problems, failed_labels = judge_rounds(wl, ops, [outputs])
    values = layers.round_metrics(tracer, outputs)
    passes, pass_problems = layers.layer_passes(args.workload, args.seed, workdir, outputs)
    values.update(passes)
    problems += pass_problems
    env = program_env()
    values["cli.import_s"] = layers.fresh_import_s("degpow.cli", env)
    values["cli.numpy_import_s"] = layers.fresh_import_s("numpy", env)
    values["trace.round_wall_s"] = wall
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_pct"] = 100 * len(tracer.spans) * span_cost_s() / wall
    spans_path = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = sorted(set(units) ^ set(values))
    if missing:
        problems.append(f"per-layer metrics and BENCHMARK.json disagree on {missing}")
    metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
    return result(ops, 1, failed, problems, failed_labels, metrics, {"spans_file": str(spans_path.relative_to(ROOT))})


def result(ops, rounds, failed, problems, failed_labels, metrics, detail) -> dict:
    return {
        "detail": {
            **detail,
            "ops_per_round": len(ops),
            "failed_ops": failed_labels,
            "known_faults": sorted({op.known_fault for op in ops if op.known_fault}),
            "problems": problems[:50],
        },
        "final": {
            "correct": not problems,
            "attempted": rounds * len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degpow" / "cli.py").is_file():
        print(f"degpow sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DEGPOW_THREADS", None)  # workloads fix their own worker counts
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "degpow" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = (traced_run if args.trace else timed_run)(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        **out["detail"],
    }
    print(json.dumps(detail))
    for problem in out["detail"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(out["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
