"""In-memory spans for the traced benchmark run, and their self-time arithmetic.

A span is one call of a wrapped library function: its name, start, end and
the index of the span that was open when it began (its parent). Spans stay in
memory while the benchmark runs and are written out once, when it ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records a span for every call of the functions it wraps.

    Nesting is taken from a stack of open spans, which is exact because the
    benchmark is a single-threaded closed loop. `counts` holds work counters
    that the wrappers' count callbacks add to after each call.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "run": self.run_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlaps between them are
    counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own
    return dict(out)


def child_count(spans: list[Span], name: str, parent_name: str) -> int:
    """Number of `name` spans whose direct parent is a `parent_name` span."""
    return sum(
        1 for s in spans
        if s.name == name and s.parent >= 0 and spans[s.parent].name == parent_name
    )
