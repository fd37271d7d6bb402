"""The discrete-event simulation engine.

This is the stand-in for SST's core: a deterministic event heap with a
current simulated time, plus registries for components, statistics and
tracing.  Everything else in the reproduction (links, NICs, switches,
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

* ``post``/``post_at`` — kwargs-free fire-and-forget scheduling.  No
  handle escapes, so no :class:`Event` object exists at all: the heap
  payload is a plain ``(fn, args)`` tuple, uncancellable by
  construction, with nothing to allocate or bookkeep per event.
* **Bucketed batches** — ``post_batch_at``/``schedule_batch`` queue a
  homogeneous same-(time, priority) storm (fabric flight fan-out,
  retransmit-timer re-arming) as ONE heap entry holding the member
  list, turning k pushes into one push + k appends.  Buckets drain in
  global (time, priority, seq) order: before each member runs, the
  drain compares against the current heap top and re-queues the
  remainder if anything (e.g. a just-posted delay-0 event or a
  higher-priority tie) must run first.  A bounded run that stops
  inside a bucket re-queues the remainder the same way.
  Fire-and-forget bucket members are pooled Event objects recycled
  through a free list.
* **O(1) ``pending_events``** — derived as created − executed −
  cancelled from three monotonic counters, so the post/run hot paths
  carry no extra bookkeeping (leased events carry an ``owner`` backref
  for the cancel path).
* **Heap compaction** — lazy cancellation used to leave dead entries in
  the heap forever; chaos schedules (thousands of ACK-cancelled
  retransmit timers) grew it unboundedly.  The engine now physically
  rebuilds the heap in place once cancelled entries outnumber live
  ones (past a small floor), keeping ``len(_heap)`` bounded.
* **GC pause during unbounded drains** — ``run()`` with neither
  ``until`` nor ``max_events`` disables the cyclic collector
  (per-event tuples are acyclic, so gen-0 sweeps are pure overhead)
  and restores it on exit.  Bounded runs keep GC on: long-lived KV
  harnesses call them thousands of times and would otherwise grow
  their peak memory.

* **Next-event slot** — :meth:`Simulator.wake` schedules like
  ``post(0.0, fn, arg)`` (seq and all), but inside a drain the first
  wake an event makes waits in a one-entry slot instead of the heap.
  Before popping, the drain compares the slot with the heap top: a
  slot entry still ahead runs straight away, skipping the heap round
  trip; one that is not is pushed like any post.  Order never
  changes.  A slot run counts within the event that woke it for
  ``events_executed``, ``step()`` and ``max_events``.

Batch-aware components build on the bucket path: the packet fabric
(:class:`repro.network.switch.PacketFabric`) schedules one event per
link-timestep rather than two per packet-hop, pinned against a
per-packet reference oracle by
``tests/properties/test_fabric_determinism.py``.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.observability.spans import SpanTracer

from .event import Event, PRIORITY_NORMAL
from .rng import RngRegistry
from .stats import StatsRegistry
from .trace import Tracer

#: Upper bound on recycled Event objects kept per simulator.
_POOL_CAP = 8192

#: Compaction trigger floor: don't bother rebuilding tiny heaps.
_COMPACT_MIN_GARBAGE = 64

_INF = float("inf")

#: ``Simulator._next`` outside a drain: wakes go straight to the heap.
_CLOSED = ()


class SimulationError(RuntimeError):
    """Raised for engine-level misuse (negative delays, time travel...)."""


class _Bucket:
    """A batch of same-(time, priority) events behind one heap entry.

    ``items[pos:]`` are the members not yet executed.  The heap entry's
    seq is the first pending member's seq, so bucket-vs-single ordering
    reduces to the ordinary tuple comparison.
    """

    __slots__ = ("time", "priority", "items", "pos")

    def __init__(self, time: float, priority: int, items: list) -> None:
        self.time = time
        self.priority = priority
        self.items = items
        self.pos = 0


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams drawn via :attr:`rng`.
    trace:
        When true, the :attr:`tracer` records every traced event
        (components call ``sim.tracer.record(...)``).

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
        "_running",
        "events_executed",
        "_cancelled",
        "_garbage",
        "_pool",
        "rng",
        "stats",
        "tracer",
        "spans",
        "_components",
        "_next",
        "_woken",
    )

    def __init__(self, seed: int = 0xC0FFEE, trace: bool = False) -> None:
        self.now: float = 0.0
        #: heap of (time, priority, seq, Event-or-_Bucket) tuples.
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        #: total queued events ever cancelled; pending count is derived
        #: (created - executed - cancelled) so the post/run hot paths
        #: carry no extra counter updates.
        self._cancelled = 0
        #: cancelled events still physically queued (compaction trigger).
        self._garbage = 0
        #: recycled poolable bucket members.
        self._pool: list[Event] = []
        self.rng = RngRegistry(seed)
        self.stats = StatsRegistry()
        self.tracer = Tracer(enabled=trace, clock=lambda: self.now)
        self.spans = SpanTracer(clock=lambda: self.now, tracer=self.tracer)
        self._components: list[Any] = []
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
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority, **kwargs)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        self._seq += 1
        ev = Event(time, priority, self._seq, fn, args, kwargs)
        ev.owner = self
        # Heap entries are plain tuples: C-speed comparisons instead of
        # Event.__lt__ (the single hottest call in large motif runs).
        heapq.heappush(self._heap, (time, priority, self._seq, ev))
        return ev

    def schedule_batch(
        self,
        delay: float,
        calls: Sequence[tuple],
        priority: int = PRIORITY_NORMAL,
    ) -> list[Event]:
        """Schedule a homogeneous batch of ``(fn, args)`` pairs, leased.

        All members run ``delay`` ns from now at the same priority, in
        list order (they receive consecutive seqs).  Returns one
        cancellable :class:`Event` per member.  Batches of two or more
        share a single heap entry (the timer-wheel bucket path); the
        retransmit layer uses this to re-arm many timers at once.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        events = []
        seq = self._seq
        for fn, args in calls:
            seq += 1
            ev = Event(time, priority, seq, fn, args)
            ev.owner = self
            events.append(ev)
        self._seq = seq
        n = len(events)
        if n == 0:
            return events
        if n == 1:
            heapq.heappush(self._heap, (time, priority, events[0].seq, events[0]))
        else:
            bucket = _Bucket(time, priority, events)
            heapq.heappush(self._heap, (time, priority, events[0].seq, bucket))
        return events

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``fn(*args)`` in ``delay`` ns (normal priority).

        The fast-scheduling hot path: kwargs-free and handle-free.  The
        heap payload is a plain ``(fn, args)`` tuple — no Event object
        exists, so there is nothing to allocate, recycle, or cancel.
        Use for the overwhelmingly common schedule-and-never-cancel
        case; use :meth:`schedule` when a cancellation handle is needed.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq = self._seq + 1
        heapq.heappush(
            self._heap, (self.now + delay, PRIORITY_NORMAL, seq, (fn, args))
        )

    def wake(self, fn: Callable[[Any], Any], arg: Any) -> None:
        """``post(0.0, fn, arg)`` for a waiter, through the next-event slot.

        It takes its place in the event order exactly as the post
        would.  If the slot is free (a drain is running and this event
        has not woken anyone yet), the entry waits there, and the drain
        runs it as soon as the event ends if it is still the next event.
        """
        seq = self._seq = self._seq + 1
        entry = (self.now, PRIORITY_NORMAL, seq, (fn, (arg,)))
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
        heapq.heappush(self._heap, (time, priority, seq, (fn, args)))

    def post_batch_at(
        self,
        time: float,
        calls: Iterable[tuple],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget a same-(time, priority) batch of ``(fn, args)``.

        One heap entry regardless of batch size (two or more members
        share a bucket); members run in list order.  This is the fabric
        flight path: a send's delivery and its span-end land at the
        same arrival time.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        items = calls if isinstance(calls, (list, tuple)) else list(calls)
        seq = self._seq
        if len(items) < 2:
            for fn, args in items:
                seq += 1
                heapq.heappush(self._heap, (time, priority, seq, (fn, args)))
            self._seq = seq
            return
        pool = self._pool
        events = []
        for fn, args in items:
            seq += 1
            if pool:
                ev = pool.pop()
                ev.time = time
                ev.priority = priority
                ev.seq = seq
                ev.fn = fn
                ev.args = args
            else:
                ev = Event(time, priority, seq, fn, args)
                ev.poolable = True
            events.append(ev)
        self._seq = seq
        bucket = _Bucket(time, priority, events)
        heapq.heappush(self._heap, (time, priority, events[0].seq, bucket))

    def post_batch(
        self,
        delay: float,
        calls: Iterable[tuple],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget a same-delay batch of ``(fn, args)`` pairs."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_batch_at(self.now + delay, calls, priority=priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        event.cancel()

    # --- live/garbage accounting ---------------------------------------------

    def _note_cancel(self) -> None:
        """A queued event was cancelled: update counters, maybe compact."""
        self._cancelled += 1
        g = self._garbage + 1
        self._garbage = g
        if g >= _COMPACT_MIN_GARBAGE and g > self._seq - self.events_executed - self._cancelled:
            self._compact()

    def _drop_garbage(self) -> None:
        """A cancelled entry was physically removed from a queue."""
        if self._garbage > 0:
            self._garbage -= 1

    def _compact(self) -> None:
        """Physically remove cancelled entries; rebuild the heap in place.

        In place matters: ``run()``/``step()`` hold local aliases of
        ``self._heap``, so the list object must survive.  Buckets are
        trimmed (and dropped when empty); surviving bucket entries are
        re-keyed to their first live member's seq.
        """
        survivors = []
        for entry in self._heap:
            payload = entry[3]
            if type(payload) is _Bucket:
                items = [e for e in payload.items[payload.pos :] if not e.cancelled]
                if not items:
                    continue
                payload.items = items
                payload.pos = 0
                survivors.append((entry[0], entry[1], items[0].seq, payload))
            elif type(payload) is tuple or not payload.cancelled:
                survivors.append(entry)
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._garbage = 0

    # --- component registry ----------------------------------------------------

    def register_component(self, comp: Any) -> None:
        """Track a component for introspection/finalization."""
        self._components.append(comp)
        # A tracer swapped in standalone (its default clock stamps 0.0)
        # picks up simulated time the moment real components attach.
        self.tracer.bind_clock(lambda: self.now)

    @property
    def components(self) -> tuple:
        return tuple(self._components)

    # --- execution ----------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap:
            payload = heap[0][3]
            if type(payload) is tuple:
                return heap[0][0]
            if type(payload) is _Bucket:
                items, pos, n = payload.items, payload.pos, len(payload.items)
                while pos < n and items[pos].cancelled:
                    pos += 1
                    self._drop_garbage()
                payload.pos = pos
                if pos >= n:
                    heapq.heappop(heap)
                    continue
                return heap[0][0]
            if payload.cancelled:
                heapq.heappop(heap)
                self._drop_garbage()
                continue
            return heap[0][0]
        return None

    def _halt(self, time: float, prio: int, seq: int, payload: Any, until: float) -> None:
        """Re-queue the live entry a bounded drain stopped at.

        If it lies beyond ``until``, ``now`` advances to exactly
        ``until`` (SST-style run-window semantics).  Cancelled entries
        never get here, so a window with only cancelled events beyond
        it leaves ``now`` at the last executed event.
        """
        heapq.heappush(self._heap, (time, prio, seq, payload))
        if time > until:
            self.now = until

    def _drain(self, until: float, budget: int) -> None:
        """The event loop behind :meth:`run` and :meth:`step`.

        Executes live events in (time, priority, seq) order until the
        heap drains, the next live event lies beyond ``until``, or
        ``budget`` events have run (a negative budget never runs out).
        Cancelled entries are dropped as they surface.  Event recycling
        is inlined: locals are captured before ``fn`` runs, so the
        callback may immediately reuse the pooled object.  The
        next-event slot (:meth:`wake`) is open only in here.
        """
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
        pool = self._pool
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
                    fn, args = nxt[3]
                    fn(*args)
                    continue
                push(heap, nxt)
            elif not heap:
                return
            time, prio, seq, ev = pop(heap)
            cls = type(ev)
            if cls is tuple:
                # Fire-and-forget single: uncancellable by construction,
                # nothing to bookkeep.
                if time > until or not budget:
                    self._halt(time, prio, seq, ev, until)
                    return
                budget -= 1
                self.now = time
                self.events_executed += 1
                fn, args = ev
                fn(*args)
                continue
            if cls is _Bucket:
                # A member's wake sorts after the members left (it
                # has a later seq), so the slot needs no check here.
                bucket = ev
                items, pos, n = bucket.items, bucket.pos, len(bucket.items)
                while pos < n:
                    ev = items[pos]
                    pos += 1
                    if ev.cancelled:
                        self._drop_garbage()
                        continue
                    # Anything queued between the bucket's (possibly
                    # stale) key and this member must run first; a
                    # bounded drain may also stop here.  Either way the
                    # remainder goes back under this member's seq.
                    if heap and heap[0] < (time, prio, ev.seq):
                        bucket.pos = pos - 1
                        push(heap, (time, prio, ev.seq, bucket))
                        break
                    if time > until or not budget:
                        bucket.pos = pos - 1
                        self._halt(time, prio, ev.seq, bucket, until)
                        return
                    budget -= 1
                    self.now = time
                    self.events_executed += 1
                    fn, args, kw = ev.fn, ev.args, ev.kwargs
                    if ev.poolable:
                        if len(pool) < _POOL_CAP:
                            ev.fn = None
                            ev.args = ()
                            pool.append(ev)
                    else:
                        ev.owner = None
                    if kw:
                        fn(*args, **kw)
                    else:
                        fn(*args)
                continue
            if ev.cancelled:
                self._drop_garbage()
                continue
            if time > until or not budget:
                self._halt(time, prio, seq, ev, until)
                return
            budget -= 1
            self.now = time
            self.events_executed += 1
            fn, args, kw = ev.fn, ev.args, ev.kwargs
            ev.owner = None
            if kw:
                fn(*args, **kw)
            else:
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
        leave GC alone: KV harnesses call them thousands of times over
        a long-lived object graph, and pausing there grows peak memory.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        gc_paused = until is None and max_events is None and gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            self._drain(
                _INF if until is None else until,
                -1 if max_events is None else max(max_events, 0),
            )
        finally:
            self._running = False
            if gc_paused:
                gc.enable()
        return self.now

    def run_until_idle(self) -> float:
        """Drain every pending event; returns the final simulated time."""
        return self.run()

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._seq - self.events_executed - self._woken - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Simulator now={self.now:.1f}ns pending={self.pending_events} "
            f"executed={self.events_executed}>"
        )
