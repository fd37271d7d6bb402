"""Monitor/MWait and polling wakeup models (paper §IV-C).

RVMA's completion pointer is a single, caller-known cache line, so a
thread can arm Monitor/MWait on it and wake within ~a clock cycle of
the NIC's completion store.  Polling achieves similar latency at higher
energy, paying on average half the poll interval.  A shared completion
queue (the RDMA baseline) additionally pays a queue-poll overhead per
inspection because entries must be demultiplexed.

These waiters return :class:`repro.sim.process.Future` objects so motif
and microbenchmark processes can ``yield`` on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Simulator
from ..sim.process import Future
from .address import CACHE_LINE, cache_line_of
from .memory import NodeMemory

#: Wakeup latency for Monitor/MWait: one to several clock cycles
#: (paper §II); 2 GHz cycle ~ 0.5 ns, we charge 2 ns.
MWAIT_WAKE_NS = 2.0
#: Default busy-poll loop interval on a cached line (L1 hit + compare).
POLL_INTERVAL_NS = 4.0
#: Extra per-inspection cost of demultiplexing a shared completion queue.
CQ_POLL_OVERHEAD_NS = 30.0


@dataclass(frozen=True)
class WakeupModel:
    """How a host thread learns that a memory word changed."""

    name: str
    #: Fixed latency from the triggering store to the thread running again.
    wake_latency: float
    #: Mean waiting overhead added by the mechanism while idle (0 for MWait).
    poll_interval: float = 0.0

    def delay_after_store(self) -> float:
        """Expected ns between the NIC's store and the thread observing it."""
        return self.wake_latency + self.poll_interval / 2.0


MWAIT = WakeupModel("mwait", MWAIT_WAKE_NS)
POLL = WakeupModel("poll", 0.0, POLL_INTERVAL_NS)
CQ_POLL = WakeupModel("cq_poll", CQ_POLL_OVERHEAD_NS, POLL_INTERVAL_NS)


#: :attr:`_LineWatch.expected` of a wait that any store to the line ends.
_ANY_STORE = object()
#: :attr:`_LineWatch.expected` of a wait for a non-zero u64.
_NONZERO_U64 = object()


class _LineWatch:
    """One armed wait: the watchpoint callback on a cache line.

    Creating one registers it on the waiter's memory.  ``expected`` is
    the byte a byte wait expects, or one of the markers above.  On a
    match the watch removes itself with a fresh token equal to the one
    it was registered under, so it never holds that token: a completed
    wait is acyclic and reference counting frees it.
    """

    __slots__ = ("waiter", "line", "addr", "model", "fut", "expected")

    def __init__(self, waiter: "MemoryWaiter", addr: int, model: WakeupModel,
                 expected: object) -> None:
        self.waiter = waiter
        self.line = line = cache_line_of(addr)
        self.addr = addr
        self.model = model
        self.fut = Future(waiter.sim)
        self.expected = expected
        waiter.memory.add_watchpoint(line, CACHE_LINE, self)

    def __call__(self, w_addr: int, _data: bytes) -> None:
        memory = self.waiter.memory
        expected = self.expected
        if expected is _ANY_STORE:
            value = w_addr
        elif expected is _NONZERO_U64:
            value = memory.read_u64(self.addr)
            if value == 0:
                return  # unrelated store to the same line
        elif memory.read(self.addr, 1)[0] == expected:
            value = expected
        else:
            return
        memory.remove_watchpoint((self.line, CACHE_LINE, self))
        self.waiter.sim.post(self.model.delay_after_store(), self.fut.resolve, value)


class MemoryWaiter:
    """Arms wakeups on cache lines of a :class:`NodeMemory`.

    ``wait_for_write`` resolves its future one ``delay_after_store()``
    after the first store that touches the watched cache line.
    """

    def __init__(self, sim: Simulator, memory: NodeMemory) -> None:
        self.sim = sim
        self.memory = memory

    def wait_for_write(self, addr: int, model: WakeupModel = MWAIT) -> Future:
        """Future resolving with the store's address once the line is written."""
        return _LineWatch(self, addr, model, _ANY_STORE).fut

    def wait_for_byte(self, addr: int, expected: int, model: WakeupModel = POLL) -> Future:
        """Future resolving once the byte at *addr* equals *expected*.

        This is the last-byte polling idiom statically routed RDMA uses
        for completion: the sender encodes a per-iteration sentinel in
        the final byte and the receiver spins on it.
        """
        if self.memory.read(addr, 1)[0] != expected:
            return _LineWatch(self, addr, model, expected).fut
        fut = Future(self.sim)
        self.sim.post(model.delay_after_store(), fut.resolve, expected)
        return fut

    def wait_for_nonzero_u64(self, addr: int, model: WakeupModel = MWAIT) -> Future:
        """Future resolving with the u64 at *addr* once it becomes non-zero.

        This is exactly how an application waits on an RVMA completion
        pointer: the NIC stores the completed buffer's head address
        (never zero) into the notification word.
        """
        value = self.memory.read_u64(addr)
        if value == 0:
            return _LineWatch(self, addr, model, _NONZERO_U64).fut
        fut = Future(self.sim)
        self.sim.post(model.delay_after_store(), fut.resolve, value)
        return fut
