"""In-memory spans recorded around the benchmark's calls into witnesslab.

A span is (name, start, end, parent, op_id): ``parent`` is the index of the
enclosing span or -1, and ``op_id`` numbers the op it belongs to (-1 for
set-up).  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start) -> None:
        self.spans[idx] = (name, start, perf_counter(), parent, self.op_id)
        self._stack.pop()

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        idx, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, parent, name, start)

    @contextmanager
    def span(self, name):
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def durations(self) -> dict[str, list[float]]:
        """Seconds spent in each named span, in call order."""
        out = defaultdict(list)
        for name, start, end, _parent, _op in self.spans:
            out[name].append(end - start)
        return out

    def child_seconds(self, parent_name: str) -> float:
        """Total time of the spans whose parent is called ``parent_name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(end - start for _n, start, end, parent, _op in self.spans if parent in parents)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
