"""Spans and counters recorded around the benchmark's calls into linkcone.

A span has a name, a start, an end, its parent span and the id of the
operation it belongs to.  Spans are kept in memory and written out as
JSON when the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans.  With tracing off,
`span` hands back one shared no-op context manager, so the untraced run
executes the same calls with negligible cost.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent, tracer.op_id])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder; inert unless `enabled`."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return totals

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "parent", "op"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans, "counts": dict(self.counts)}, handle)
