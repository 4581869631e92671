import json

import pytest

from perfbench.spans import (
    NO_PARENT,
    Span,
    SpanRecorder,
    chrome_trace,
    self_time_totals,
    self_times,
)


def span(layer, start, end, parent=NO_PARENT):
    return Span(layer, layer, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("core", 0.0, 10.0),  # 0
        span("mem", 1.0, 5.0, 0),  # 1
        span("mem.cache", 2.0, 4.0, 1),  # 2: grandchild of 0
        span("nn", 6.0, 9.0, 0),  # 3
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 3.0])
    # Self times of a closed tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_and_merges_children():
    spans = [
        span("core", 0.0, 10.0),
        span("a", 2.0, 6.0, 0),
        span("b", 4.0, 8.0, 0),  # overlaps a: covered once
        span("c", 9.0, 12.0, 0),  # runs past the parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_totals_count_calls_and_self_time():
    spans = [
        span("core", 0.0, 4.0),
        span("mem", 0.0, 1.0, 0),
        span("mem", 2.0, 3.0, 0),
    ]
    totals = self_time_totals(spans)
    assert totals["mem"] == (pytest.approx(2.0), 2)
    assert totals["core"] == (pytest.approx(2.0), 1)
    by_call = self_time_totals(spans, lambda s: f"{s.layer}/{s.call}")
    assert set(by_call) == {"core/core", "mem/mem"}


def test_recorder_nests_wrapped_calls():
    rec = SpanRecorder()
    rec.round_index = 7
    inner = rec.wrap("mem.cache", "get_batch", lambda x: x + 1)
    outer = rec.wrap("mem", "prepare", lambda x: inner(x) * 2)
    root = rec.open("core", "round")
    assert outer(1) == 4
    rec.close(root)
    spans = rec.spans()
    assert [(s.layer, s.call, s.parent) for s in spans] == [
        ("core", "round", NO_PARENT),
        ("mem", "prepare", 0),
        ("mem.cache", "get_batch", 1),
    ]
    assert all(s.round_index == 7 for s in spans)
    assert spans[0].start <= spans[1].start <= spans[2].start
    assert spans[2].end <= spans[1].end <= spans[0].end


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("ssd", "load", boom)()
    assert rec.open_spans == 0
    assert rec.spans()[0].end >= rec.spans()[0].start


def test_spans_refuses_open_spans():
    rec = SpanRecorder()
    rec.open("core", "round")
    with pytest.raises(RuntimeError):
        rec.spans()


def test_chrome_trace_is_complete_events_in_microseconds():
    spans = [span("core", 1.0, 1.5), span("mem", 1.1, 1.2, 0)]
    doc = json.loads(json.dumps(chrome_trace(spans, metadata={"seed": 3})))
    ev = doc["traceEvents"]
    assert {e["ph"] for e in ev} == {"X"}
    assert ev[0]["ts"] == 0.0 and ev[0]["dur"] == pytest.approx(5e5)
    assert ev[1]["ts"] == pytest.approx(1e5) and ev[1]["args"]["parent"] == 0
    assert doc["otherData"] == {"seed": 3}
