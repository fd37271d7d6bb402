"""Event objects for the discrete-event engine.

An :class:`Event` is a cancellable scheduled callback.  Events order by
``(time, priority, seq)`` so simultaneous events execute in a
deterministic order: lower priority value first, then insertion order.

Only ``Simulator.schedule*`` creates one, returning it as a handle the
caller may :meth:`cancel`; while queued it carries an :attr:`owner`
backref that keeps the engine's counters O(1)-exact.  Fire-and-forget
posts and wakes queue their callback and argument tuple in the heap
entry itself instead.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A single scheduled occurrence in simulated time.

    Events are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code normally never constructs one directly.  Holding on to the
    returned event allows cancellation via :meth:`cancel`.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "fn",
        "args",
        "cancelled",
        "owner",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: engine backref while the event sits in a queue; the engine
        #: clears it once the event executes, so late cancels of an
        #: already-fired handle (common in the ARQ transport) are no-ops
        #: for the pending-events accounting.
        self.owner = None

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it."""
        if not self.cancelled:
            self.cancelled = True
            owner = self.owner
            if owner is not None:
                owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " CANCELLED" if self.cancelled else ""
        return f"<Event t={self.time:.1f} p={self.priority} #{self.seq} {name}{flag}>"


#: Priority used for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for events that must run before normal events at the same time
#: (e.g. link frees before new arbitration).
PRIORITY_HIGH = -10
#: Priority for bookkeeping that must run after everything else at a time.
PRIORITY_LOW = 10
