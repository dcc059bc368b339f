"""In-memory spans and counters recorded around the package's public calls.

A span is (name, start, end, parent index, op id).  Spans nest through a
stack, so a layer call made inside an op span becomes its child.  Only the
benchmark's own code opens spans: work that one layer does inside another
(for example `geometric_measure` calling `to_majorana`) stays inside the
caller's span.  `NullTracer` stands in when tracing is off and records
nothing.
"""
from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str, op=None):
        return _NULL

    def add(self, key: str, value: float = 1) -> None:
        pass

    def peak(self, key: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent never overlap (the work is sequential), so
        their durations add up to the covered part of the parent.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)
