"""In-memory spans and counters recorded around calls into qdeform.

A span has a name, a start, an end and the span that was open when it
began; every span of one run shares the run id.  Nothing is written until
the run ends.  While a tracer is disabled, `span` hands back one shared
no-op object and `add` returns at once, so untraced passes pay only a
method call per public call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        stack = t._stack
        self.parent = stack[-1] if stack else None
        self.id = len(t.spans)
        t.spans.append(None)  # slot reserved so ids follow start order
        stack.append(self.id)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        t = self.tracer
        t._stack.pop()
        t.spans[self.id] = (self.id, self.parent, self.name, self.start, end)
        return False


class Tracer:
    """Spans and counters for one run; enable it for traced passes only."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def add(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.enabled and value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds).

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap in this single-threaded run.
        """
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[sid]
        return {name: (n, busy) for name, (n, busy) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def write(self, path) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
