"""In-memory span recorder and the namespace patching used by the traced run.

A span is one call into a public phforge name: its name, start, end, the
span that was open when it started, and the benchmark operation it belongs
to.  Spans stay in memory while the benchmark runs and are written out once
at the end.  A layer's self time is the duration of its spans minus the part
of each interval that the span's direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanRecorder:
    """Collects spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[int] = []
        self._starts: dict[int, tuple] = {}
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op: int | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        self._starts[index] = (name, parent, self.op, self._clock())
        return index

    def end(self, index: int) -> None:
        now = self._clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._open.pop()
        name, parent, op, start = self._starts.pop(index)
        self.spans[index] = Span(name, start, now, parent, op)

    def timed(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span (and ``name`` call count)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call only bumps counters, for hot call sites."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def closed_spans(self) -> list[Span]:
        if self._open:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``spans``."""
        spans = self.closed_spans()
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return [
            s.duration - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)
        ]

    def total_by_name(self) -> Counter:
        out: Counter = Counter()
        for s in self.closed_spans():
            out[s.name] += s.duration
        return out

    def self_by_layer(self) -> Counter:
        """Self time summed per layer, the part of a span name before the dot."""
        out: Counter = Counter()
        for s, own in zip(self.closed_spans(), self.self_times()):
            out[s.name.split(".", 1)[0]] += own
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.closed_spans()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "op": s.op}
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
