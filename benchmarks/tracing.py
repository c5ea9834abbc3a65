"""Spans around calls into the program's layers, kept in memory.

A span records a name, start and end (perf_counter seconds), the index of the
span open when it started, and a few attributes.  Probes replace module
attributes of the program with wrappers that open a span per call; nothing in
the program itself is edited, and `Probes.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), parent)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def outermost(self, name: str) -> list[Span]:
        """Spans of this name not nested inside another span of the same name."""
        out = []
        for s in self.named(name):
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                out.append(s)
        return out

    def inside(self, outer: Span, name: str) -> list[Span]:
        """Spans of this name nested at any depth under outer."""
        root = self.spans.index(outer)
        out = []
        for s in self.named(name):
            p = s.parent
            while p is not None and p != root:
                p = self.spans[p].parent
            if p == root:
                out.append(s)
        return out

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of opening and closing one span around a no-op."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(calls):
        with tracer.span("noop"):
            pass
    return (time.perf_counter() - start) / calls


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Probes:
    """Wrap module attributes in spans; restore them all afterwards."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, targets, attr: str, on_result=None, cpu: bool = False) -> None:
        """Replace `attr` on every object in targets with one wrapper.

        on_result(span, result) stores attributes from the return value;
        cpu records the process's and its reaped children's CPU time.
        """
        original = getattr(targets[0], attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                if cpu:
                    own, kids = time.process_time(), children_cpu()
                result = original(*args, **kwargs)
                if cpu:
                    rec.attrs["parent_cpu"] = time.process_time() - own
                    rec.attrs["children_cpu"] = children_cpu() - kids
                if on_result is not None:
                    on_result(rec, result)
            return result

        for obj in targets:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapper)

    def wrap_item(self, name: str, mapping: dict, key: str) -> None:
        """Same, for one entry of a registry dict."""
        original = mapping[key]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._saved.append((mapping, key, original))
        mapping[key] = wrapper

    def restore(self) -> None:
        for obj, attr, original in reversed(self._saved):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._saved.clear()
