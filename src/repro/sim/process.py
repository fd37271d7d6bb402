"""Coroutine-style processes over the event engine (simpy-flavoured).

Motif ranks and protocol state machines read far more naturally as
sequential code than as callback chains.  A :class:`SimProcess` drives a
generator; the generator yields one of:

* ``float`` — sleep that many nanoseconds;
* :class:`Future` — suspend until it resolves, receiving its value;
* :class:`AllOf` — suspend until every contained future (or process)
  resolves, receiving the list of values;
* :class:`SimProcess` — suspend until it finishes, receiving its result.

A process is itself awaitable via its :attr:`done_future`.

A resolved future schedules its waiters at ``(now, PRIORITY_NORMAL)``,
in registration order, through :meth:`Simulator.wake`: the first may
run right after the resolving event when nothing else comes first.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Future:
    """A one-shot value that processes may wait on.

    NIC completion pointers, message arrivals and process termination
    are all surfaced to process code as futures.  A future holds a
    waiter list only while someone waits: ``_waiters`` is the shared
    empty tuple until the first waiter registers, and again once
    resolved.
    """

    __slots__ = ("sim", "done", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.done = False
        self.value: Any = None
        self._waiters: "list | tuple" = ()

    def resolve(self, value: Any = None) -> None:
        """Mark done and wake every waiter (in registration order)."""
        if self.done:
            raise RuntimeError("future already resolved")
        self.done = True
        self.value = value
        waiters, self._waiters = self._waiters, ()
        for waiter in waiters:
            if waiter.__class__ is not _AllOfWait:
                self.sim.wake(waiter, value)
            else:
                # An AllOf still counting down has nothing to run.
                values = waiter.arrive()
                if values is not None:
                    self.sim.wake(waiter.advance, values)

    def add_callback(self, cb) -> None:
        """Invoke ``cb(value)`` once resolved (immediately if already done)."""
        if self.done:
            self.sim.wake(cb, self.value)
        elif self._waiters:
            self._waiters.append(cb)
        else:
            self._waiters = [cb]


class AllOf:
    """Barrier over several futures or processes; yields their values.

    Values come back in list order (a process contributes its result).
    A future listed twice counts twice.
    """

    __slots__ = ("futures",)

    def __init__(self, members: Iterable["Future | SimProcess"]) -> None:
        futures = []
        for m in members:
            if isinstance(m, SimProcess):
                m = m.done_future
            elif not isinstance(m, Future):
                raise TypeError(
                    f"AllOf takes futures and processes, not {type(m).__name__}"
                )
            futures.append(m)
        self.futures = futures


class _AllOfWait:
    """One process's countdown over an :class:`AllOf`.

    It sits in each pending future's waiter list.  A resolve counts it
    down in place; only the last arrival schedules the process.
    """

    __slots__ = ("futures", "advance", "remaining")

    def __init__(self, futures: list, advance) -> None:
        self.futures = futures
        self.advance = advance
        self.remaining = 0
        for f in futures:
            if not f.done:
                if f._waiters:
                    f._waiters.append(self)
                else:
                    f._waiters = [self]
                self.remaining += 1

    def values(self) -> list:
        return [f.value for f in self.futures]

    def arrive(self) -> "list | None":
        """Count one arrival: the values once the last is in, else None."""
        self.remaining -= 1
        return None if self.remaining else self.values()


class SimProcess:
    """Drives a generator as a simulated process.

    Exceptions raised inside the generator propagate out of the event
    loop (they indicate simulation bugs, not modelled behaviour).
    """

    __slots__ = ("sim", "gen", "name", "done_future", "result")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done_future = Future(sim)
        self.result: Any = None
        sim.post(0.0, self._advance, None)

    @property
    def finished(self) -> bool:
        return self.done_future.done

    def _advance(self, send_value: Any) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.result = stop.value
            self.done_future.resolve(stop.value)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        # Futures first: completions are what most yields wait on.
        if isinstance(yielded, Future):
            yielded.add_callback(self._advance)
        elif isinstance(yielded, (int, float)):
            self.sim.post(float(yielded), self._advance, None)
        elif isinstance(yielded, AllOf):
            wait = _AllOfWait(yielded.futures, self._advance)
            if not wait.remaining:
                self.sim.wake(self._advance, wait.values())
        elif isinstance(yielded, SimProcess):
            yielded.done_future.add_callback(self._advance)
        else:
            raise TypeError(
                f"process {self.name} yielded unsupported {type(yielded).__name__}"
            )


def spawn(sim: "Simulator", gen: Generator, name: str = "proc") -> SimProcess:
    """Start *gen* as a process on *sim* (convenience constructor)."""
    return SimProcess(sim, gen, name)
