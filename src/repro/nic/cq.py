"""Completion queue model for the RDMA baseline NIC.

RDMA surfaces *all* completions through shared CQs; the paper contrasts
this with RVMA's per-buffer completion pointers (a known location per
transfer, MWait-able, no demultiplexing).  Entries are DMAed into host
memory by the NIC (a PCIe traversal) before software can poll them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from ..sim.engine import Simulator
from ..sim.process import Future


class CqKind(Enum):
    """What a completion-queue entry reports."""

    WRITE_DONE = "write_done"  # initiator: RDMA write acked
    SEND_DONE = "send_done"  # initiator: send acked
    RECV = "recv"  # target: send landed in a posted recv
    WRITE_IMM = "write_imm"  # target: write-with-immediate arrived
    READ_DONE = "read_done"  # initiator: read data placed locally
    ERROR = "error"


@dataclass(slots=True)
class CqEntry:
    kind: CqKind
    op_id: int
    size: int = 0
    imm: Optional[int] = None
    wr_id: int = 0
    time: float = 0.0
    ok: bool = True


class CompletionQueue:
    """FIFO of completion entries with one FIFO of consumers.

    A consumer is a :class:`Future` (from :meth:`wait`) or a callback
    (from :meth:`consume`, the software demultiplexer); each takes one
    entry, in the order they asked.
    """

    def __init__(self, sim: Simulator, capacity: int = 4096) -> None:
        self.sim = sim
        self.capacity = capacity
        # Lists, not deques: one CQ per node, and an empty deque costs
        # ~760 B where an empty list costs 56 B; queues stay a few deep.
        self.entries: list[CqEntry] = []
        self._consumers: list[Future | Callable[[CqEntry], None]] = []
        self.overflows = 0
        self.total_entries = 0

    def push(self, entry: CqEntry) -> None:
        """NIC-side: deposit an entry (drops + counts on overflow,
        the classic 'ran out of CQ contexts' failure the paper cites)."""
        self.total_entries += 1
        if self._consumers:
            consumer = self._consumers.pop(0)
            if consumer.__class__ is Future:
                consumer.resolve(entry)
            else:
                consumer(entry)
            return
        if len(self.entries) >= self.capacity:
            self.overflows += 1
            return
        self.entries.append(entry)

    def poll(self, max_entries: int = 1) -> list[CqEntry]:
        """Software-side: harvest up to *max_entries* without blocking."""
        out = []
        while self.entries and len(out) < max_entries:
            out.append(self.entries.pop(0))
        return out

    def wait(self) -> Future:
        """Future resolving with the next entry (drains backlog first)."""
        fut = Future(self.sim)
        if self.entries:
            fut.resolve(self.entries.pop(0))
        else:
            self._consumers.append(fut)
        return fut

    def consume(self, cb: Callable[[CqEntry], None]) -> None:
        """Hand the next entry to ``cb``: now if one is queued, else on arrival.

        Either way ``cb(entry)`` runs directly, inside this call or inside
        the :meth:`push` that deposits the entry, without an engine event
        of its own: a consumer charges its own delay (the dispatcher posts
        its routing one CQ poll later).
        """
        if self.entries:
            cb(self.entries.pop(0))
        else:
            self._consumers.append(cb)

    def __len__(self) -> int:
        return len(self.entries)
