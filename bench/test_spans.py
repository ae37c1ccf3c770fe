"""Self-time arithmetic and span nesting of the benchmark's tracer.

    python3 -m pytest bench/test_spans.py
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from layers import PER_LAYER
from spans import Span, Tracer, child_count, self_times, summarize


def test_self_time_subtracts_children():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 5.0, 9.0, 0),
        Span("d", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_children():
    spans = [
        Span("e", 0.0, 10.0, -1),
        Span("f", 1.0, 5.0, 0),
        Span("g", 3.0, 8.0, 0),  # overlaps f over [3, 5]
        Span("h", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_summarize_adds_calls_inclusive_and_self_time():
    spans = [
        Span("train", 0.0, 4.0, -1),
        Span("step", 0.5, 1.5, 0),
        Span("step", 2.0, 3.0, 0),
        Span("step", 5.0, 6.0, -1),
    ]
    stats = summarize(spans)
    assert stats["train"] == pytest.approx({"calls": 1, "s": 4.0, "self_s": 2.0})
    assert stats["step"] == pytest.approx({"calls": 3, "s": 3.0, "self_s": 3.0})
    assert child_count(spans, "step", "train") == 2


def test_tracer_records_nesting_and_counts():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, lambda counts, result, x: counts.__setitem__("n", result))
    outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    outer_span, inner_span = tracer.spans
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
    assert tracer.counts["n"] == 2


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
