"""In-memory span recording around functions the benchmark wraps from outside.

A :class:`Tracer` replaces module attributes with timing wrappers for the
duration of a ``with tracer.installed(targets):`` block and puts the
originals back when the block exits, even on error.  Each call records a
span (name, start, end, parent) in a list; parents come from a call stack,
so the recording assumes one thread.  A target may also name counters,
each a function of the call's arguments and result, summed over calls.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

CountFn = Callable[[tuple, Any], int]


@dataclass(frozen=True)
class Target:
    """``module.attr`` is what the caller looks up; ``name`` labels its spans.

    ``counts`` maps a counter name to a function of (positional args,
    result) that gives the amount one call adds.
    """

    module: Any
    attr: str
    name: str
    counts: dict[str, CountFn] = field(default_factory=dict)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Optional[dict[str, CountFn]] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            for key, count in (counts or {}).items():
                self.counts[key] += count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self.wrap(t.name, original, t.counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it, so their summed
    durations are the part of the parent's interval they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, own):
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += self_s
    return table


def tree_rows(spans: list[Span]) -> list[dict]:
    """Spans merged by their path from the root, in first-seen order.

    Returns rows with ``path`` (names joined by " > "), ``depth``,
    ``calls``, ``s`` and ``self_s``; repeated calls on one path are summed.
    """
    own = self_times(spans)
    paths: list[str] = []
    rows: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        path = s.name if s.parent is None else f"{paths[s.parent]} > {s.name}"
        paths.append(path)
        row = rows.setdefault(
            path, {"path": path, "depth": path.count(" > "), "calls": 0, "s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += self_s
    return list(rows.values())
