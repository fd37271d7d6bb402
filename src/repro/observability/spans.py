"""Span-style tracing: the simulator's one tracing path.

A span is an interval with simulated start/end times (and wall-clock
times for profiling), a category, optional parent link, and free-form
fields.  Spans record *durations*, which is what profiling and report
generation need ("where did the sim-time go: NIC pipeline, transport,
or fabric?").

This module deliberately imports nothing from the rest of ``repro`` —
the engine imports it, so any upward import would be a cycle.  Clocks
are passed in as plain callables.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class Span:
    """One traced interval.

    ``start``/``end`` are simulated nanoseconds; ``wall_start``/
    ``wall_end`` are host-process seconds (``time.perf_counter``) so the
    profiling hooks can attribute *wall* cost as well as *sim* cost.
    ``end`` is ``None`` while the span is open.
    """

    __slots__ = (
        "id",
        "category",
        "name",
        "start",
        "end",
        "wall_start",
        "wall_end",
        "parent_id",
        "fields",
    )

    def __init__(
        self,
        id: int,
        category: str,
        name: str,
        start: float,
        wall_start: float,
        parent_id: Optional[int] = None,
        fields: Optional[dict] = None,
    ) -> None:
        self.id = id
        self.category = category
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.parent_id = parent_id
        self.fields: dict = fields or {}

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def sim_time(self) -> float:
        """Simulated duration in ns (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def wall_time(self) -> float:
        """Wall-clock duration in seconds (0.0 while still open)."""
        return (self.wall_end - self.wall_start) if self.wall_end is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "category": self.category,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "parent_id": self.parent_id,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:  # pragma: no cover
        state = f"end={self.end}" if self.end is not None else "open"
        return f"Span({self.category}/{self.name} start={self.start} {state})"


class SpanTracer:
    """Collects :class:`Span` intervals with per-category enable flags.

    Disabled (the default) the hot-path guard is a single attribute
    check (``spans.active``), so instrumented components cost nearly
    nothing in benchmark runs.  ``enable()`` with no arguments turns on
    every category; ``enable("transport", "recovery")`` turns on just
    those.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        wall_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._wall_clock = wall_clock
        self.active = False
        self._categories: Optional[set[str]] = None  # None => all when active
        self._spans: list[Span] = []
        self._next_id = 1
        self._stack: list[Span] = []  # context-manager nesting only

    # -- enablement -------------------------------------------------------

    def enable(self, *categories: str) -> None:
        """Start recording.  No arguments enables every category."""
        self.active = True
        if categories:
            if self._categories is None:
                self._categories = set()
            self._categories.update(categories)
        else:
            self._categories = None

    def disable(self) -> None:
        """Stop recording (already-collected spans are kept)."""
        self.active = False

    def wants(self, category: str) -> bool:
        """Cheap guard for instrumentation sites: record this category?"""
        if not self.active:
            return False
        return self._categories is None or category in self._categories

    def categories(self) -> list[str]:
        """Sorted distinct categories seen so far."""
        return sorted({s.category for s in self._spans})

    # -- recording --------------------------------------------------------

    def begin(
        self,
        category: str,
        name: str,
        parent: Optional[Span] = None,
        **fields: Any,
    ) -> Optional[Span]:
        """Open a span; returns ``None`` when the category is disabled.

        Instrumentation sites hold the returned handle and pass it back
        to :meth:`end` — ``end(None)`` is a no-op, so call sites need no
        enablement check of their own.
        """
        if not self.wants(category):
            return None
        sp = Span(
            self._next_id,
            category,
            name,
            self._clock(),
            self._wall_clock(),
            parent_id=parent.id if parent is not None else None,
            fields=fields,
        )
        self._next_id += 1
        self._spans.append(sp)
        return sp

    def end(self, span: Optional[Span], **fields: Any) -> None:
        """Close *span* (no-op for ``None`` or an already-closed span)."""
        if span is None or span.end is not None:
            return
        span.end = self._clock()
        span.wall_end = self._wall_clock()
        if fields:
            span.fields.update(fields)

    @contextmanager
    def span(self, category: str, name: str, **fields: Any) -> Iterator[Optional[Span]]:
        """Context manager form; nested uses are parented automatically."""
        parent = self._stack[-1] if self._stack else None
        sp = self.begin(category, name, parent=parent, **fields)
        if sp is not None:
            self._stack.append(sp)
        try:
            yield sp
        finally:
            if sp is not None:
                self._stack.pop()
                self.end(sp)

    def clear(self) -> None:
        self._spans = []
        self._stack = []

    # -- queries ----------------------------------------------------------

    def spans(self, category: str = "") -> list[Span]:
        """Spans whose category starts with *category* ("" = all)."""
        return [s for s in self._spans if s.category.startswith(category)]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def top_by_sim_time(self, n: int = 10) -> list[Span]:
        """N hottest *closed* spans by simulated duration."""
        done = [s for s in self._spans if s.end is not None]
        return sorted(done, key=lambda s: s.sim_time, reverse=True)[:n]

    def top_by_wall_time(self, n: int = 10) -> list[Span]:
        """N hottest *closed* spans by host wall-clock duration."""
        done = [s for s in self._spans if s.wall_end is not None]
        return sorted(done, key=lambda s: s.wall_time, reverse=True)[:n]

    def summary(self) -> dict[str, dict]:
        """Per-category rollup: span count, total sim ns, total wall s."""
        out: dict[str, dict] = {}
        for s in self._spans:
            row = out.setdefault(
                s.category, {"count": 0, "open": 0, "sim_ns": 0.0, "wall_s": 0.0}
            )
            row["count"] += 1
            if s.end is None:
                row["open"] += 1
            else:
                row["sim_ns"] += s.sim_time
                row["wall_s"] += s.wall_time
        return out

    def to_chrome_trace(self) -> list[dict]:
        """Closed spans as Chrome Trace Event Format complete ("X") events.

        Open spans are emitted as instants so they remain visible.
        Timestamps convert from simulated ns to the format's us.
        """
        events: list[dict] = []
        for s in self._spans:
            base = {
                "name": s.name,
                "ts": s.start / 1000.0,
                "pid": 0,
                "tid": s.category,
                "args": dict(s.fields),
            }
            if s.end is not None:
                base["ph"] = "X"
                base["dur"] = s.sim_time / 1000.0
            else:
                base["ph"] = "i"
                base["s"] = "t"
            events.append(base)
        return events
