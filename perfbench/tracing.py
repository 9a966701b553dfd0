"""In-memory spans recorded around the benchmark's calls into vmidecode.

A span has a name, a start, an end and the span that caused it; every span
of one traced run shares the run's trace id. A span's self time is its
duration minus the time covered by its direct children (children nest
strictly, so their durations do not overlap).
"""

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans cost one ``nullcontext`` each."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []       # dicts, appended when a span ends
        self._stack = []      # [span id, child time] of the open spans
        self._next_id = 0

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append({"trace": self.trace_id, "id": span_id,
                               "parent": parent, "name": name,
                               "start": start, "end": end,
                               "self": duration - frame[1]})

    def self_times(self) -> dict:
        """Summed self time per span name, seconds."""
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["self"]
        return out

    def durations(self, name) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]
