"""In-memory spans around the benchmark's calls into the library.

A span is (id, parent id, name, start ns, end ns); every span of one workload
run carries the same run id.  With tracing off nothing is stored and
``timed`` only measures, so the end-to-end numbers come from the same code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.blocks: list[tuple[int, int, str, object, object]] = []
        self.records: list[dict] = []
        self._parents = [0]
        self._next_id = 1

    def _record(self, name: str, start: int, end: int) -> int:
        sid = self._next_id
        self._next_id += 1
        self.spans.append((sid, self._parents[-1], name, start, end))
        return sid

    @contextmanager
    def scope(self, name: str):
        """A span that is the parent of every span opened inside it."""
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        index = len(self.spans)
        self.spans.append((sid, self._parents[-1], name, perf_counter_ns(), 0))
        self._parents.append(sid)
        try:
            yield
        finally:
            self._parents.pop()
            _, parent, _, start, _ = self.spans[index]
            self.spans[index] = (sid, parent, name, start, perf_counter_ns())

    def timed(self, name: str, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), seconds)``, recording a span if enabled."""
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            if self.enabled:
                self._record(name, start, end)
        return result, (end - start) / 1e9

    def add_calls(self, name: str, starts, ends) -> None:
        """Spans for calls whose start and end times were already taken.

        They are kept as one block of arrays and become separate spans only
        when written, so recording a batch costs no per-call work.
        """
        if self.enabled:
            self.blocks.append((self._next_id, self._parents[-1], name, starts, ends))
            self._next_id += len(starts)

    def note(self, kind: str, **fields) -> None:
        """A non-span record (counts, histograms) written with the spans."""
        if self.enabled:
            self.records.append({"run": self.run_id, "kind": kind, **fields})

    def span_count(self) -> int:
        return len(self.spans) + sum(len(b[3]) for b in self.blocks)

    def all_spans(self):
        yield from self.spans
        for first, parent, name, starts, ends in self.blocks:
            for i, (start, end) in enumerate(zip(starts, ends)):
                yield first + i, parent, name, start, end

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end in self.all_spans():
                f.write(json.dumps({
                    "run": self.run_id, "span": sid, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")
