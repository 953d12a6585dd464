"""In-memory spans around the benchmark's own calls into the library.

A span records its name, the layer (the name up to the first dot), start
and end in ``perf_counter_ns`` nanoseconds, its parent and the request it
belongs to.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span: [id, parent id or -1, request id, name, start_ns, end_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, self.request, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[4] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its children cover."""
        own = [end - start for _sid, _parent, _req, _name, start, end in self.spans]
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def to_json(self) -> list[dict]:
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        return [dict(zip(keys, rec)) for rec in self.spans]


def layer(name: str) -> str:
    return name.split(".", 1)[0]
