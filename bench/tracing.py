"""Spans recorded around the benchmark's calls into each zfpoly layer.

A span is (name, key, start, end, parent).  ``name`` is ``<layer>.<function>``
for a library call and ``bench.<step>`` for the benchmark's own grouping
spans; ``key`` tags the input class (for example ``n7``).  Spans stay in
memory until the run ends.  With tracing off the workloads get
``NULL_TRACER``, whose spans do nothing.
"""
from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context manager."""

    def span(self, name: str, key: str = ""):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer.stack
        self.record[4] = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[2] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records spans as ``[name, key, start, end, parent index]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, key: str = "") -> _Span:
        return _Span(self, [name, key, 0.0, 0.0, -1])

    def intervals(self, name: str, key: str = "") -> list[tuple[float, float]]:
        """(start, end) of every span with this name and key."""
        return [(s[2], s[3]) for s in self.spans if s[0] == name and s[1] == key]

    def self_times(self, duration) -> dict[str, float]:
        """Per layer, the duration of its spans minus that of their child spans.

        ``duration(start, end)`` gives a span's duration in seconds.
        """
        own = [duration(s[2], s[3]) for s in self.spans]
        for s, d in zip(self.spans, list(own)):
            if s[4] >= 0:
                own[s[4]] -= d
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            layer = s[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + t
        return totals

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "key": key, "start": start, "end": end, "parent": parent}
            for name, key, start, end, parent in self.spans
        ]
