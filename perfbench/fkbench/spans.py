"""In-memory spans, their self times, and reversible attribute patching.

A span is ``[name, start, end, parent, step, phase]``: times from
``time.perf_counter``, ``parent`` the index of the span that was open when
it started (-1 at top level), ``step`` the number of optimizer updates
completed before it started, and ``phase`` the recorder's phase at its start
("setup" or "timed"). Spans are only appended while a run lasts and are
written out when it ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class SpanRecorder:
    """Collects spans from wrapped callables plus named counters per phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.step = 0
        self.phase = "setup"
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.step, self.phase])
            open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def counted(self, name: str) -> int:
        return self.counts.get((self.phase, name), 0)

    @property
    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    def write_ndjson(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, step, phase) in enumerate(self.spans):
                fh.write(json.dumps({
                    "name": name, "start_s": start - origin, "end_s": end - origin,
                    "self_s": selfs[i], "parent": parent, "step": step, "phase": phase,
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(spans: list[list], phase: str | None = None) -> dict[str, list]:
    """``{name: [calls, inclusive_s, self_s]}`` over spans of ``phase`` (all if None).

    Inclusive time counts only the outermost span of a name, so a wrapped
    function that reaches another function wrapped under the same name is
    not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, list] = {}
    for i, (name, start, end, parent, _, span_phase) in enumerate(spans):
        if phase is not None and span_phase != phase:
            continue
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry[1] += end - start
    return out
