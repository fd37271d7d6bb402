"""The discrete-event simulation engine.

This is the stand-in for SST's core: a deterministic event heap with a
current simulated time, plus the run's random streams, statistics and
span tracer.  Everything else in the reproduction (links, NICs, switches,
motifs) is built from callbacks scheduled here.

Determinism: events at equal times run in (priority, insertion-order),
and all randomness flows through :class:`repro.sim.rng.RngRegistry`,
so a simulation with a fixed seed is exactly reproducible.

There is one engine mode and one event loop: ``run()``,
``run(until=...)``, ``run(max_events=...)`` and ``step()`` all execute
events through :meth:`Simulator._drain`.  Its hot-path machinery is
invisible to scheduling semantics — the conformance suite in
``tests/unit/test_engine_conformance.py`` pins this engine
event-for-event to the reference pure-heap implementation:

* **One flat heap entry per event** — ``(time, priority, seq, fn,
  args)`` tuples, compared at C speed (``seq`` is unique, so a
  comparison never reaches ``fn``).  ``post*``/``wake`` queue the
  callback and its argument tuple with nothing else to allocate or
  cancel; ``schedule*`` queues the :class:`Event` handle it returns
  as ``(time, priority, seq, event, None)``.
* **O(1) ``pending_events``** — derived as created − executed −
  slot runs − cancelled from four monotonic counters, so the post/run
  hot paths carry no extra bookkeeping (a queued :class:`Event`
  carries an ``owner`` backref for the cancel path).
* **Lazy cancellation** — a cancelled entry stays queued until the
  drain reaches it, so a cancelled retransmit timer leaves by its own
  deadline and few dead entries are queued at once
  (``docs/PERFORMANCE.md`` item 5).
* **GC pause during unbounded drains** — ``run()`` with neither
  ``until`` nor ``max_events`` disables the cyclic collector
  (per-event tuples are acyclic, so gen-0 sweeps are pure overhead)
  and restores it on exit.  Bounded runs keep GC on; pausing them too
  measured no gain (``docs/PERFORMANCE.md`` item 6).
* **Next-event slot** — :meth:`Simulator.wake` schedules like
  ``post(0.0, fn, arg)`` (seq and all), but inside a drain the first
  wake an event makes waits in a one-entry slot instead of the heap.
  Before popping, the drain compares the slot with the heap top: a
  slot entry still ahead runs straight away, skipping the heap round
  trip; one that is not is pushed like any post.  Order never
  changes.  A slot run counts within the event that woke it for
  ``events_executed``, ``step()`` and ``max_events``.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from repro.observability.spans import SpanTracer

from .event import Event, PRIORITY_NORMAL
from .rng import RngRegistry
from .stats import StatsRegistry

_INF = float("inf")

#: ``Simulator._next`` outside a drain: wakes go straight to the heap.
_CLOSED = ()


class SimulationError(RuntimeError):
    """Raised for engine-level misuse (negative delays, time travel...)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams drawn via :attr:`rng`.

    Examples
    --------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(5.0, out.append, "hello")
    >>> sim.run()
    >>> (sim.now, out)
    (5.0, ['hello'])
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "events_executed",
        "_cancelled",
        "rng",
        "stats",
        "spans",
        "_next",
        "_woken",
    )

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self.now: float = 0.0
        #: heap of (time, priority, seq, fn, args) tuples; an Event is
        #: queued as (time, priority, seq, event, None).
        self._heap: list[tuple] = []
        self._seq = 0
        self.events_executed = 0
        #: total queued events ever cancelled; pending count is derived
        #: (created - executed - slot runs - cancelled) so the post/run
        #: hot paths carry no extra counter updates.
        self._cancelled = 0
        self.rng = RngRegistry(seed)
        self.stats = StatsRegistry()
        self.spans = SpanTracer(clock=lambda: self.now)
        #: the next-event slot: a woken heap entry, None (empty) or
        #: _CLOSED (not draining).
        self._next: tuple = _CLOSED
        #: slot entries run without an event of their own.
        self._woken = 0

    # --- scheduling ----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        self._seq += 1
        ev = Event(time, priority, self._seq, fn, args)
        ev.owner = self
        heapq.heappush(self._heap, (time, priority, self._seq, ev, None))
        return ev

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``fn(*args)`` in ``delay`` ns (normal priority).

        The fast-scheduling hot path: handle-free.  The heap entry holds
        ``fn`` and ``args`` themselves — no Event object exists, so there
        is nothing to allocate or cancel.  Use for the overwhelmingly
        common schedule-and-never-cancel case; use :meth:`schedule`
        when a cancellation handle is needed.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, PRIORITY_NORMAL, seq, fn, args))

    def wake(self, fn: Callable[[Any], Any], arg: Any) -> None:
        """``post(0.0, fn, arg)`` for a waiter, through the next-event slot.

        It takes its place in the event order exactly as the post
        would.  If the slot is free (a drain is running and this event
        has not woken anyone yet), the entry waits there, and the drain
        runs it as soon as the event ends if it is still the next event.
        """
        seq = self._seq = self._seq + 1
        entry = (self.now, PRIORITY_NORMAL, seq, fn, (arg,))
        if self._next is None:
            self._next = entry
        else:
            heapq.heappush(self._heap, entry)

    def post_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget ``fn(*args)`` at an absolute time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (time, priority, seq, fn, args))

    # --- live accounting -----------------------------------------------------

    def _note_cancel(self) -> None:
        """A queued event was cancelled: count it out of ``pending_events``."""
        self._cancelled += 1

    # --- execution ----------------------------------------------------------

    def _halt(self, entry: tuple, until: float) -> None:
        """Re-queue the live heap entry a bounded drain stopped at.

        If it lies beyond ``until``, ``now`` advances to exactly
        ``until`` (SST-style run-window semantics).  Cancelled entries
        never get here, so a window with only cancelled events beyond
        it leaves ``now`` at the last executed event.
        """
        if entry[4] is None:
            entry[3].owner = self  # an Event queued again: cancels count
        heapq.heappush(self._heap, entry)
        if entry[0] > until:
            self.now = until

    def _drain(self, until: float, budget: int) -> None:
        """The event loop behind :meth:`run` and :meth:`step`.

        Executes live events in (time, priority, seq) order until the
        heap drains, the next live event lies beyond ``until``, or
        ``budget`` events have run (a negative budget never runs out).
        Cancelled entries are dropped as they surface.  The next-event
        slot (:meth:`wake`) is open only in here, and an open slot marks
        a drain in progress: a ``run()`` or ``step()`` from inside an
        event would close it under the outer drain, so it raises.
        """
        if self._next is not _CLOSED:
            raise SimulationError("the event loop is not reentrant")
        self._next = None
        try:
            self._run_events(until, budget)
        finally:
            nxt = self._next
            self._next = _CLOSED
            if nxt:
                heapq.heappush(self._heap, nxt)

    def _run_events(self, until: float, budget: int) -> None:
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        while True:
            nxt = self._next
            if nxt is not None:
                # The first wake of the event that just ran: run it now,
                # within that event, if nothing queued comes first.
                self._next = None
                if not heap or nxt < heap[0]:
                    self._woken += 1
                    nxt[3](*nxt[4])
                    continue
                push(heap, nxt)
            elif not heap:
                return
            entry = pop(heap)
            time, _prio, _seq, fn, args = entry
            if args is None:
                if fn.cancelled:
                    continue
                fn.owner = None
                fn, args = fn.fn, fn.args
            if time > until or not budget:
                self._halt(entry, until)
                return
            budget -= 1
            self.now = time
            self.events_executed += 1
            fn(*args)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the heap is empty."""
        executed = self.events_executed
        self._drain(_INF, 1)
        return self.events_executed != executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which execution stopped.  When
        ``until`` is given and live events remain beyond it, ``now`` is
        advanced to exactly ``until`` (SST-style run-window semantics);
        if only cancelled events remain, ``now`` stays at the last
        executed event.

        An unbounded drain pauses the cyclic collector: per-event
        allocations (heap tuples, arg tuples) are acyclic, and
        generation-0 sweeps otherwise trigger every ~700 events.  It is
        re-enabled on exit, so callers see no change.  Bounded runs
        leave GC alone: no per-op record is cyclic, so pausing them too
        costs no peak memory, but it bought no measured run time on the
        KV workloads either (``docs/PERFORMANCE.md`` item 6).
        """
        gc_paused = until is None and max_events is None and gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            self._drain(
                _INF if until is None else until,
                -1 if max_events is None else max(max_events, 0),
            )
        finally:
            if gc_paused:
                gc.enable()
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._seq - self.events_executed - self._woken - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Simulator now={self.now:.1f}ns pending={self.pending_events} "
            f"executed={self.events_executed}>"
        )
