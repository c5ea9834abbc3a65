"""The traced run: one round with spans around every layer call, then the
passes that measure single layers (see README.md for the metric list)."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from degpow import asymptotics, claims, cli, search

import workloads as wl
from tracing import Probes, Tracer

SWEEPS = (
    ("validity", "sweep_neighborhood_validity"),
    ("observations", "sweep_observations"),
    ("completion", "sweep_bipartite_completion"),
)
ORDER = {"search-n8": 8, "sweeps-n7": 7}
POOL_WORKERS = 2
C5_SAMPLE_STRIDE = 997


def install(probes: Probes) -> None:
    def keep(key, fn):
        return lambda rec, result: rec.attrs.__setitem__(key, fn(result))

    probes.wrap("cli.emit", [cli], "_emit_json")
    probes.wrap("cli.emit", [cli], "_emit")
    probes.wrap("search.search_extremal", [search, cli], "search_extremal", cpu=True)
    probes.wrap("search.prefixes", [search], "_prefixes", keep("prefixes", len))
    probes.wrap("graphs.canonical_relabel", [search], "canonical_relabel")
    for kind, fn in SWEEPS:
        probes.wrap(f"search.sweep_{kind}", [search], fn, keep("pairs", lambda r: r.pairs_checked))
    probes.wrap("asymptotics.expand_ep", [asymptotics, claims], "expand_ep")
    probes.wrap("asymptotics.verify_f_positive", [asymptotics, claims], "verify_f_positive",
                keep("grid_points", lambda r: r.grid_points))
    probes.wrap("asymptotics.optimize_c", [asymptotics, claims, cli], "optimize_c")
    probes.wrap("asymptotics.best_biclique_split", [asymptotics, claims], "best_biclique_split")
    for cid in claims.CLAIMS:
        probes.wrap_item(f"claims.{cid}", claims.CLAIMS, cid)


def traced_round(ops, tracer: Tracer) -> tuple[float, list]:
    probes = Probes(tracer)
    install(probes)
    try:
        start = time.perf_counter()
        raws = []
        for op in ops:
            with tracer.span("op:" + op.label):
                raws.append(wl.call(op))
        wall = time.perf_counter() - start
    finally:
        probes.restore()
    return wall, raws


def count_c5(n: int, seed: int):
    """One single-worker walk at order n with the walker's C5 predicate
    wrapped: calls, rejects, leaves, and a strided sample of its inputs."""
    predicate = search._creates_c5
    offset = seed % C5_SAMPLE_STRIDE
    calls = rejects = 0
    samples = []

    def counting(rows, u, v):
        nonlocal calls, rejects
        calls += 1
        if calls % C5_SAMPLE_STRIDE == offset:
            samples.append((rows[:], u, v))
        if predicate(rows, u, v):
            rejects += 1
            return True
        return False

    search._creates_c5 = counting
    try:
        leaves = search.enumerate_c5_free(n)
    finally:
        search._creates_c5 = predicate
    return calls, rejects, leaves, samples


def c5_check_ns(samples, min_seconds: float = 0.3) -> float:
    predicate = search._creates_c5
    done = 0
    start = time.perf_counter()
    while True:
        for rows, u, v in samples:
            predicate(rows, u, v)
        done += len(samples)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / done * 1e9


def fresh_import_s(module: str, env: dict, runs: int = 5) -> float:
    """Median time for a fresh interpreter to import one module."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for i in range(runs + 1):  # the first run writes bytecode caches
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def median_time(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_passes(name: str, seed: int, workdir, round_outputs: list) -> tuple[dict, list[str]]:
    """Walk, leaf-scoring and C5-predicate passes at the workload's order.

    search-n8 also checks worker-count invariance: its single-worker payload
    must equal the round's two-worker payload byte for byte, elapsed_ms aside.
    """
    n = ORDER.get(name)
    m = {}
    problems: list[str] = []
    if n is None:
        return {"graphs.c5_checks": 0, "graphs.c5_rejects": 0, "graphs.c5_check_ns": 0,
                "search.tree_nodes": 0, "search.leaves": 0, "search.walk_s": 0,
                "search.leaf_score_s": 0}, problems
    calls, rejects, leaves, samples = count_c5(n, seed)
    if rejects != calls - leaves + 1:
        problems.append(f"c5 counts: {rejects} rejects, but the tree shape needs {calls - leaves + 1}")
    m["graphs.c5_checks"] = calls
    m["graphs.c5_rejects"] = rejects
    m["graphs.c5_check_ns"] = c5_check_ns(samples)
    m["search.tree_nodes"] = calls + leaves
    m["search.leaves"] = leaves
    if name == "search-n8":
        m["search.walk_s"] = median_time(lambda: search.enumerate_c5_free(n), 1)
        single = wl.cli_op("search n=8 p=2 workers=1", ["search", "--n", "8", "--p", "2", "--workers", "1"],
                           workdir, wl.judge_search(8, 2))
        start = time.perf_counter()
        raw = wl.call(single)
        single_s = time.perf_counter() - start
        m["search.leaf_score_s"] = single_s - m["search.walk_s"]
        if wl.keep(single, raw) != round_outputs[0]:
            problems.append("search n=8: the workers=1 payload differs from the workers=2 payload")
        return m, problems
    ps = wl.sweep_order(seed)
    m["search.walk_s"] = median_time(lambda: search.enumerate_c5_free(n), 3)
    m["search.leaf_score_s"] = median_time(lambda: search.search_extremal(n, ps), 3) - m["search.walk_s"]
    return m, problems


def round_metrics(tracer: Tracer, outputs: list) -> dict:
    """Per-layer metrics from the spans of one traced round."""
    ms = lambda name: 1000 * tracer.total(name)  # noqa: E731
    searches = tracer.named("search.search_extremal")
    pooled = [s for s in searches if tracer.inside(s, "search.prefixes")]
    pooled_wall = sum(s.duration for s in pooled)
    relabels = tracer.named("graphs.canonical_relabel")
    expands = tracer.named("asymptotics.expand_ep")
    m = {
        "graphs.canonical_relabel_calls": len(relabels),
        "graphs.canonical_relabel_us": 1e6 * statistics.fmean(s.duration for s in relabels) if relabels else 0,
        "search.prefixes": sum(s.attrs["prefixes"] for s in tracer.named("search.prefixes")),
        "search.pool_efficiency": (sum(s.attrs["children_cpu"] for s in pooled) / (pooled_wall * POOL_WORKERS)
                                   if pooled else 0),
        "search.parent_cpu_s": sum(s.attrs["parent_cpu"] for s in pooled),
        "search.ties": len(relabels),
        "search.classes": count_classes(outputs),
        "search.pairs_checked": sum(s.attrs["pairs"] for kind, _ in SWEEPS
                                    for s in tracer.named(f"search.sweep_{kind}")),
        "asymptotics.expand_ep_calls": len(expands),
        "asymptotics.expand_ep_us": 1e6 * statistics.fmean(s.duration for s in expands) if expands else 0,
        "asymptotics.f_grid_points": sum(s.attrs["grid_points"]
                                         for s in tracer.named("asymptotics.verify_f_positive")),
        "asymptotics.verify_f_positive_s": tracer.total("asymptotics.verify_f_positive"),
        "asymptotics.optimize_c_ms": ms("asymptotics.optimize_c"),
        "asymptotics.best_split_s": tracer.total("asymptotics.best_biclique_split"),
        "cli.emit_ms": 1000 * sum(s.duration for s in tracer.outermost("cli.emit")),
    }
    for kind, _ in SWEEPS:
        m[f"search.sweep_{kind}_s"] = tracer.total(f"search.sweep_{kind}")
    for cid in claims.CLAIMS:
        m[f"claims.{cid}_ms"] = ms(f"claims.{cid}")
    return m


def count_classes(outputs: list) -> int:
    """Maximizer classes in the round's search and sweep payloads."""
    total = 0
    for out in outputs:
        if not (isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str)):
            continue
        payload = json.loads(out[1]) if out[1] else {}
        if "maximizers" in payload:
            total += len(payload["maximizers"])
        for row in payload.get("report", []) if isinstance(payload, dict) else []:
            total += len(row["maximizer_classes"])
    return total
