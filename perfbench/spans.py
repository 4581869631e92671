"""In-memory span recording, self-time arithmetic and Chrome trace export.

A span is one timed call into a layer: ``(layer, call, start, end,
parent, round)``.  Spans nest through a call stack, so a span's parent is
the span open when it started.  The benchmark is single-threaded, which
makes the child spans of one parent disjoint intervals inside it.

Self time is a span's duration minus the part of that interval its
direct children cover, so the self times of a span tree add up to the
root span's duration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "self_time_totals",
    "chrome_trace",
    "write_chrome_trace",
]

#: ``parent`` of a span opened with nothing else open
NO_PARENT = -1


@dataclass(frozen=True)
class Span:
    layer: str
    call: str
    start: float
    end: float
    parent: int
    round_index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends.

    ``wrap(layer, call, fn)`` returns ``fn`` timed as one span per call.
    Spans are kept as flat rows until :meth:`spans` is asked for them.
    """

    def __init__(self) -> None:
        self._rows: list[list[Any]] = []
        self._stack: list[int] = []
        #: round index stamped on spans opened from now on
        self.round_index = -1

    def open(self, layer: str, call: str, start: float | None = None) -> int:
        sid = len(self._rows)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self._stack.append(sid)
        self._rows.append(
            [
                layer,
                call,
                perf_counter() if start is None else start,
                0.0,
                parent,
                self.round_index,
            ]
        )
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} is not the innermost open span")
        self._stack.pop()
        self._rows[sid][3] = perf_counter() if end is None else end

    def wrap(self, layer: str, call: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self.open(layer, call)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) are still open")
        return [Span(*row) for row in self._rows]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children are clipped to their parent and overlapping children are
    merged, so a malformed trace can never yield negative self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent != NO_PARENT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(max(0.0, s.duration - covered))
    return out


def self_time_totals(
    spans: list[Span], key: Callable[[Span], str] = lambda s: s.layer
) -> dict[str, tuple[float, int]]:
    """``{key(span): (self seconds, calls)}``, by layer unless told otherwise."""
    totals: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(key(s), [0.0, 0])
        t[0] += own
        t[1] += 1
    return {k: (v[0], v[1]) for k, v in totals.items()}


def chrome_trace(
    spans: Iterable[Span], *, metadata: dict | None = None
) -> dict:
    """Chrome trace-event JSON (complete ``X`` events; opens in Perfetto)."""
    spans = list(spans)
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.call,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"layer": s.layer, "round": s.round_index, "parent": s.parent},
        }
        for s in spans
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(path: str, spans: Iterable[Span], **kwargs: Any) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, **kwargs), f)
