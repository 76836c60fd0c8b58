"""In-memory span recorder of the ledger's traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer (the program's internal spans are not read): name, start, end,
the span that caused it, and one trace id per benchmark operation. They
stay in memory until the run ends and are then written out as JSON.

A disabled recorder hands out one shared no-op span, so the same
workload code runs traced and untraced and the difference between the
two is the tracing overhead.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from typing import Iterable, Optional


class Span:
    """One timed interval; use as a context manager."""

    __slots__ = ("recorder", "name", "span_id", "trace_id", "parent_id", "start", "end")

    def __init__(self, recorder: "SpanRecorder", name: str, parent: Optional["Span"]):
        self.recorder = recorder
        self.name = name
        self.span_id = next(recorder._ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = parent.trace_id if parent is not None else self.span_id
        self.start = 0.0
        self.end = 0.0

    def child(self, name: str) -> "Span":
        return Span(self.recorder, name, self)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def covered_seconds(self, children: Iterable["Span"]) -> float:
        """Length of the part of this span that the given child spans cover."""
        covered = 0.0
        reach = self.start
        for child in sorted(children, key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        self.recorder.spans.append(self)  # list.append is atomic under the GIL


class _NullSpan:
    """What a disabled recorder returns: times nothing, records nothing."""

    def child(self, name: str) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects finished spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    def root(self, name: str):
        """Start a new trace: one per benchmark operation."""
        return Span(self, name, None) if self.enabled else _NULL_SPAN

    def to_json(self) -> list[dict]:
        """Spans as plain dicts, times in seconds since the recorder began.

        ``self`` is a span's duration minus the interval its children cover.
        """
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        return [
            {
                "id": s.span_id,
                "trace": s.trace_id,
                "parent": s.parent_id,
                "name": s.name,
                "start": s.start - self._origin,
                "end": s.end - self._origin,
                "self": s.seconds - s.covered_seconds(children[s.span_id]),
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
