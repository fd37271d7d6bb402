"""Timeout-based failure detection (heartbeat + phi-accrual-lite).

The paper's §IV-F recovery story starts *after* a failure is known; this
module supplies the missing detection step so applications get a
:class:`PeerFailed` completion instead of hanging in
``wait_completion``.  Watching a peer starts a deterministic ping loop
(probes ride the reliability transport's raw heartbeat path); every
receipt from the peer — data, ACK, or pong — is a proof of life.  A
peer is *suspected* when nothing has been heard for ``phi`` times the
smoothed inter-arrival of proofs (with a configured floor), the
"phi-accrual-lite" rule: adaptive like phi-accrual, but thresholding
the smoothed mean directly instead of a full CDF estimate.

The transport also short-circuits detection: a message that exhausts its
retry budget is immediate evidence of death, reported via
:meth:`FailureDetector.force_suspect` without waiting out the timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.process import Future
from .transport import ReliabilityConfig, ReliableTransport


@dataclass(frozen=True)
class PeerFailed:
    """The completion an application receives when a peer is suspected."""

    peer: int
    time: float  # simulated time of suspicion
    reason: str


@dataclass
class Watch:
    """Handle for one monitored peer; cancel to stop probing."""

    peer: int
    active: bool = True
    #: resolves with the PeerFailed record when suspicion fires.
    failed: Optional[Future] = None

    def cancel(self) -> None:
        """Stop monitoring (pending ping loop unwinds at its next tick)."""
        self.active = False


class FailureDetector:
    """Per-NIC failure detector driven by the reliability transport."""

    def __init__(self, nic, transport: ReliableTransport, cfg: ReliabilityConfig) -> None:
        self.nic = nic
        self.sim = nic.sim
        self.cfg = cfg
        self.transport = transport
        self._watches: dict[int, Watch] = {}
        self._last_heard: dict[int, float] = {}
        #: smoothed inter-arrival of proofs of life, per peer (EWMA).
        self._smoothed: dict[int, float] = {}
        self.suspected: dict[int, PeerFailed] = {}
        self._callbacks: list[Callable[[PeerFailed], None]] = []
        #: open suspicion spans, peer -> Span (suspect -> reinstate).
        self._susp_spans: dict[int, object] = {}
        transport.on_heard_from = self.heard_from
        transport.on_give_up = self.force_suspect

    # ------------------------------------------------------------------ API

    def watch(self, peer: int, deadline: Optional[float] = None) -> Watch:
        """Start monitoring *peer*; returns the :class:`Watch` handle.

        The ping loop stops when suspicion fires, when the watch is
        cancelled, or after ``deadline`` ns (so a simulation whose peers
        all stay healthy still terminates).
        """
        w = self._watches.get(peer)
        if w is not None and w.active:
            return w
        w = Watch(peer=peer, failed=Future(self.sim))
        self._watches[peer] = w
        failed = self.suspected.get(peer)
        if failed is not None:
            w.active = False
            w.failed.resolve(failed)
            return w
        self._last_heard[peer] = self.sim.now
        if deadline is not None:
            self.sim.post(deadline, w.cancel)
        self.transport.send_ping(peer)
        self.sim.post(self.cfg.heartbeat_interval, self._tick, w)
        return w

    def failure_future(self, peer: int) -> Future:
        """A future resolved with :class:`PeerFailed` (starts a watch)."""
        return self.watch(peer).failed

    def on_failure(self, cb: Callable[[PeerFailed], None]) -> None:
        """Register a callback fired once per newly suspected peer."""
        self._callbacks.append(cb)

    def is_suspected(self, peer: int) -> bool:
        return peer in self.suspected

    def suspicion_timeout(self, peer: int) -> float:
        """Current adaptive timeout for *peer* (phi-accrual-lite)."""
        mean = self._smoothed.get(peer, self.cfg.heartbeat_interval)
        return max(
            self.cfg.min_suspicion_timeout,
            self.cfg.suspicion_phi * max(mean, self.cfg.heartbeat_interval),
        )

    # ------------------------------------------------------------------ evidence

    def heard_from(self, peer: int) -> None:
        """Any receipt from *peer* is a proof of life."""
        now = self.sim.now
        prev = self._last_heard.get(peer)
        if prev is not None:
            interval = now - prev
            mean = self._smoothed.get(peer)
            self._smoothed[peer] = (
                interval if mean is None else 0.8 * mean + 0.2 * interval
            )
        self._last_heard[peer] = now

    def force_suspect(self, peer: int, reason: str) -> None:
        """Immediate suspicion (e.g. transport retry budget exhausted)."""
        self._suspect(peer, reason)

    def reinstate(self, peer: int) -> None:
        """Un-suspect *peer*: it crashed, restarted and rejoined.

        Clears the suspicion record and liveness history so a fresh
        :meth:`watch` starts from scratch.  Old watches stay resolved —
        a ``PeerFailed`` the application already consumed is history,
        not state — and a new watch must be started explicitly.
        """
        if self.suspected.pop(peer, None) is None:
            return
        self._watches.pop(peer, None)
        self._smoothed.pop(peer, None)
        self._last_heard[peer] = self.sim.now
        self.nic.stat("detector.peers_reinstated").add()
        self.sim.spans.end(self._susp_spans.pop(peer, None), outcome="reinstated")

    def shutdown(self) -> None:
        """Deactivate this detector forever (its NIC crashed): every
        watch is cancelled so pending ping loops unwind silently."""
        for w in self._watches.values():
            w.active = False
        self._watches.clear()
        self._callbacks.clear()

    # ------------------------------------------------------------------ internals

    def _tick(self, w: Watch) -> None:
        if not w.active or w.peer in self.suspected or self.nic.failed:
            return
        elapsed = self.sim.now - self._last_heard.get(w.peer, self.sim.now)
        if elapsed > self.suspicion_timeout(w.peer):
            self._suspect(w.peer, f"no proof of life for {elapsed:.0f}ns")
            return
        self.transport.send_ping(w.peer)
        self.sim.post(self.cfg.heartbeat_interval, self._tick, w)

    def _suspect(self, peer: int, reason: str) -> None:
        if peer in self.suspected:
            return
        record = PeerFailed(peer=peer, time=self.sim.now, reason=reason)
        self.suspected[peer] = record
        self.nic.stat("detector.peers_suspected").add()
        spans = self.sim.spans
        if spans.active and spans.wants("detector"):
            self._susp_spans[peer] = spans.begin(
                "detector", "suspicion", observer=self.nic.name, peer=peer, reason=reason
            )
        w = self._watches.get(peer)
        if w is not None:
            w.active = False
            if w.failed is not None and not w.failed.done:
                w.failed.resolve(record)
        self.nic.on_peer_suspected(record)
        for cb in list(self._callbacks):
            cb(record)
