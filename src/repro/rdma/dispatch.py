"""Shared-CQ demultiplexing.

An RDMA NIC funnels every completion through shared CQs; software with
several in-flight operations (a halo rank has six neighbours) must pull
entries and dispatch them to whichever logical channel they belong to.
This pull-and-match layer is precisely the bookkeeping RVMA's
per-buffer completion pointers eliminate (paper §IV) — modelling it
explicitly keeps the comparison honest.
"""

from __future__ import annotations

from ..memory.mwait import CQ_POLL, WakeupModel
from ..nic.cq import CompletionQueue, CqEntry, CqKind
from ..sim.engine import Simulator
from ..sim.process import Future

_RECV = CqKind.RECV


class CqDispatcher:
    """Routes receive completions to waiters by work-request id.

    While anyone waits, the dispatcher pulls entries off the CQ one at a
    time.  Each costs one CQ-poll overhead (demultiplexing a shared
    queue), charged before it is routed.  A ``RECV`` entry goes to the
    earliest-registered waiter of its wr_id, or is kept for a later
    :meth:`wait_wr`, which takes the earliest kept one.  An entry of any
    other kind is pulled, charged and dropped: initiator completions
    reach software through ``op.done``, and nothing waits on the CQ for
    them.
    """

    def __init__(self, sim: Simulator, cq: CompletionQueue, model: WakeupModel = CQ_POLL) -> None:
        self.sim = sim
        self.cq = cq
        self.model = model
        #: wr_id -> [future] in registration order.
        self._waiters: dict[int, list[Future]] = {}
        #: wr_id -> [RECV entry] in arrival order, entries nobody waited for.
        self._unclaimed: dict[int, list[CqEntry]] = {}
        #: pulling entries (taking one, or queued on the CQ for one).
        self._pulling = False
        self.entries_dispatched = 0

    def wait_wr(self, wr_id: int) -> Future:
        """Future resolving with the next ``RECV`` entry for *wr_id*."""
        fut = Future(self.sim)
        kept = self._unclaimed.get(wr_id)
        if kept:
            entry = _pop_first(self._unclaimed, wr_id, kept)
            self.sim.post(self.model.delay_after_store(), fut.resolve, entry)
            return fut
        self._waiters.setdefault(wr_id, []).append(fut)
        if not self._pulling:
            self._pulling = True
            self.sim.wake(self.cq.consume, self._take)
        return fut

    def _take(self, entry: CqEntry) -> None:
        """The CQ hands over one entry: route it one poll later."""
        self.entries_dispatched += 1
        self.sim.post(self.model.delay_after_store(), self._route, entry)

    def _route(self, entry: CqEntry) -> None:
        if entry.kind is _RECV:
            waiters = self._waiters.get(entry.wr_id)
            if waiters:
                _pop_first(self._waiters, entry.wr_id, waiters).resolve(entry)
            else:
                self._unclaimed.setdefault(entry.wr_id, []).append(entry)
        if self._waiters:
            self.cq.consume(self._take)
        else:
            self._pulling = False


def _pop_first(index: dict, key: int, items: list):
    """Remove and return ``items[0]`` (``index[key] is items``); drop an emptied key."""
    if len(items) == 1:
        del index[key]
        return items[0]
    return items.pop(0)
