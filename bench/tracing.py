"""Spans around the benchmark's calls into the package, kept in memory.

A span is (name, tag, start, end, parent, pass_id, calls), where calls is the
number of calls into the package the span wraps.  The layer of a span is the
part of its name before the first dot; spans named `bench.*` are the
benchmark's own grouping.  Self time is a span's duration minus the part of
that interval covered by the union of its children.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, str, float, float, Optional[int], str, int]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: span() costs one method call and records nothing."""

    def span(self, name: str, tag: str = "", calls: int = 0):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        rec = tr.spans[self.index]
        tr.spans[self.index] = rec[:3] + (tr.clock(),) + rec[4:]
        tr._stack.pop()
        return False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.pass_id = "pass"

    def span(self, name: str, tag: str = "", calls: int = 0) -> _Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, tag, self.clock(), float("nan"), parent, self.pass_id, calls))
        self._stack.append(index)
        return _Span(self, index)

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["fields"] = ["name", "tag", "start", "end", "parent", "pass_id", "calls"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (_, _, start, end, *_rest) in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Per layer: (self time, calls wrapped)."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        secs, calls = totals.get(layer, (0.0, 0))
        totals[layer] = (secs + own, calls + span[6])
    return totals


def span_durations(spans: Sequence[Span], name: str, tag: Optional[str] = None) -> List[float]:
    return [s[3] - s[2] for s in spans if s[0] == name and (tag is None or s[1] == tag)]
