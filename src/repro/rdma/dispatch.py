"""Shared-CQ demultiplexing.

An RDMA NIC funnels every completion through shared CQs; software with
several in-flight operations (a halo rank has six neighbours) must pull
entries and dispatch them to whichever logical channel they belong to.
This pull-and-match layer is precisely the bookkeeping RVMA's
per-buffer completion pointers eliminate (paper §IV) — modelling it
explicitly keeps the comparison honest.
"""

from __future__ import annotations

from typing import Optional

from ..memory.mwait import CQ_POLL, WakeupModel
from ..nic.cq import CompletionQueue, CqEntry, CqKind
from ..sim.engine import Simulator
from ..sim.process import Future


class CqDispatcher:
    """Routes CQ entries to waiters by work-request id (and kind).

    While anyone waits, the dispatcher pulls entries off the CQ one at a
    time.  Each costs one CQ-poll overhead (demultiplexing a shared
    queue), charged before it is routed: to the earliest-registered
    matching waiter, or kept for a later :meth:`wait_wr`.  A waiter
    takes the earliest kept entry that matches.
    """

    def __init__(self, sim: Simulator, cq: CompletionQueue, model: WakeupModel = CQ_POLL) -> None:
        self.sim = sim
        self.cq = cq
        self.model = model
        #: wr_id -> [(kind or None, future)] in registration order.
        self._waiters: dict[int, list[tuple[Optional[CqKind], Future]]] = {}
        #: wr_id -> [entry] in arrival order, entries nobody waited for.
        self._unclaimed: dict[int, list[CqEntry]] = {}
        #: pulling entries (taking one, or queued on the CQ for one).
        self._pulling = False
        self.entries_dispatched = 0

    def wait_wr(self, wr_id: int, kind: Optional[CqKind] = None) -> Future:
        """Future resolving with the next entry for *wr_id* (any kind if None)."""
        fut = Future(self.sim)
        kept = self._unclaimed.get(wr_id)
        if kept:
            for i, entry in enumerate(kept):
                if kind is None or entry.kind == kind:
                    _remove(self._unclaimed, wr_id, kept, i)
                    self.sim.post(self.model.delay_after_store(), fut.resolve, entry)
                    return fut
        self._waiters.setdefault(wr_id, []).append((kind, fut))
        if not self._pulling:
            self._pulling = True
            self.sim.wake(self.cq.consume, self._take)
        return fut

    def _take(self, entry: CqEntry) -> None:
        self.entries_dispatched += 1
        self.sim.post(self.model.delay_after_store(), self._route, entry)

    def _route(self, entry: CqEntry) -> None:
        fut = None
        waiters = self._waiters.get(entry.wr_id)
        if waiters:
            for i, (kind, f) in enumerate(waiters):
                if kind is None or kind == entry.kind:
                    _remove(self._waiters, entry.wr_id, waiters, i)
                    fut = f
                    break
        if fut is None:
            self._unclaimed.setdefault(entry.wr_id, []).append(entry)
        else:
            fut.resolve(entry)
        if self._waiters:
            self.cq.consume(self._take)
        else:
            self._pulling = False


def _remove(index: dict, key: int, items: list, i: int) -> None:
    """Delete ``items[i]`` (``index[key] is items``); drop an emptied key."""
    if len(items) == 1:
        del index[key]
    else:
        del items[i]
