"""Span recording for the traced benchmark run.

A span is one call into a library layer, made from the benchmark's own code:
its name, start, end, the span that caused it and the job it belongs to.
Spans are kept in memory and written out once the run ends.  The untraced run
uses :class:`NullTracer`, whose spans cost one attribute lookup and a shared
no-op context manager.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Stand-in for :class:`Tracer` that records nothing."""

    job: int | None = None

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """Records nested spans; ``spans[i]`` is ``[name, start, end, parent, job]``
    with ``parent`` the index of the enclosing span, or -1 at the top."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        of its interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )
