"""Host-side journals and periodic checkpoints of NIC-resident state.

A crash (:meth:`repro.nic.base.BaseNic.crash`) destroys everything the
NIC knows: the mailbox LUT, posted-buffer buckets, retained-epoch
records and the reliability layer's sequence state.  Host memory
survives — so recovery keeps *host-side* shadows of exactly that state:

* :class:`OpJournal` — a continuous write-ahead log of window-structure
  commands (init/post/close/catch-all).  Journaling is continuous, not
  periodic, because the LUT's *structure* must be reproducible exactly:
  a buffer posted after the last checkpoint would otherwise be
  unknowable after a crash.
* :class:`SendJournal` — a bounded log of sent messages per (dst, flow)
  keyed by reliability sequence number.  Unlike the transport's pending
  set it is *not* pruned on ACK: an acknowledged message may still need
  replay when the **receiver** crashes and rewinds its cumulative edge.
* :class:`CheckpointDaemon` — periodic lightweight snapshots of the
  mutable counters (mailbox epochs, threshold counters, received-byte
  marks, receive-flow cumulative edges).  Cheap enough to take often;
  anything past the snapshot is reconstructed by peer replay.

Restore = journal (structure) + latest checkpoint (counters) + replay
(data), performed by :class:`repro.recovery.rejoin.RecoveryManager`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..memory.buffer import PostedBuffer
from ..nic.lut import BufferMode, EpochType, RetiredBuffer


@dataclass
class SendEntry:
    """One journaled reliable send (enough to rebuild the envelope)."""

    seq: int
    size: int
    header: object  # the inner application header
    data: bytes
    mode: object


class SendJournal:
    """Bounded per-flow log of reliable sends, for rejoin replay.

    ``retain`` bounds memory per flow; when the peer's cumulative edge
    falls behind the oldest retained entry, the replay reports a
    coverage hole instead of silently resuming with a gap.
    """

    def __init__(self, retain: int = 4096) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.retain = retain
        self._flows: dict[tuple[int, int], deque] = {}

    def note_send(self, dst: int, flow: int, seq: int, size: int, header, data: bytes, mode) -> None:
        q = self._flows.setdefault((dst, flow), deque(maxlen=self.retain))
        q.append(SendEntry(seq=seq, size=size, header=header, data=data, mode=mode))

    def flows_for(self, dst: int) -> list[int]:
        return [flow for (d, flow) in self._flows if d == dst]

    def peers(self) -> set:
        return {d for (d, _flow) in self._flows}

    def entries_after(self, dst: int, flow: int, cum: int):
        """Journaled sends with seq > *cum*, ascending; plus the oldest
        retained seq when it exceeds ``cum + 1`` (a coverage hole)."""
        q = self._flows.get((dst, flow))
        if not q:
            return [], None
        entries = sorted((e for e in q if e.seq > cum), key=lambda e: e.seq)
        oldest = min(e.seq for e in q)
        hole = oldest if oldest > cum + 1 else None
        return entries, hole

    def next_seq_hint(self, dst: int, flow: int) -> int:
        """1 + the highest journaled seq (continue, never reuse)."""
        q = self._flows.get((dst, flow))
        return (max(e.seq for e in q) + 1) if q else 1

    def next_seqs(self) -> dict[tuple[int, int], int]:
        return {key: self.next_seq_hint(*key) for key in self._flows}


@dataclass
class PostRecord:
    """One journaled ``hw_post_buffer`` (the PostedBuffer carries the
    notification/length addresses and threshold; all host-side)."""

    posted: PostedBuffer


@dataclass
class _WindowLog:
    threshold_type: EpochType
    mode: BufferMode
    posts: list = field(default_factory=list)  # [PostRecord] in post order
    #: epoch -> (counter at retire, bytes in the epoch).  Epoch boundaries
    #: are receiver-timed (``RVMA_Win_inc_epoch`` can cut one anywhere),
    #: so replay cannot re-derive them from the put stream alone — the
    #: journal pins each completed epoch to its exact counter value.
    retires: dict = field(default_factory=dict)
    closed: bool = False
    #: attached active-mailbox handlers, in attach order (NIC-resident
    #: bindings die with the hardware; restore re-attaches them cold).
    handlers: list = field(default_factory=list)
    #: epoch -> :class:`repro.nic.active.ActiveEffect`.  Handler effects
    #: (word value, served-frame offsets) are receiver-timed like epoch
    #: boundaries, so replay re-asserts them from the journal instead of
    #: re-running handlers against rebuilt (cold) handler state.
    active_effects: dict = field(default_factory=dict)


class OpJournal:
    """Write-ahead log of window-structure commands for one node.

    Installed as ``nic.op_journal`` by the recovery agent; the NIC
    notes every successful init/post/close/catch-all.  Post order is
    load-bearing: post *i* of a window serves epoch *i*, which is what
    lets restore rebuild buckets positionally from a checkpoint epoch.
    """

    def __init__(self) -> None:
        self.windows: dict[int, _WindowLog] = {}
        self.catch_all: Optional[int] = None

    def note_init(self, mailbox: int, threshold_type: EpochType, mode: BufferMode) -> None:
        # Re-init of a closed window starts a fresh incarnation (the
        # LUT clears the old bucket; so does the journal).
        self.windows[mailbox] = _WindowLog(threshold_type=threshold_type, mode=mode)

    def note_post(self, mailbox: int, posted: PostedBuffer) -> None:
        log = self.windows.get(mailbox)
        if log is not None:
            log.posts.append(PostRecord(posted=posted))

    def note_retire(self, mailbox: int, epoch: int, counter: int, nbytes: int) -> None:
        log = self.windows.get(mailbox)
        if log is not None:
            log.retires[epoch] = (counter, nbytes)

    def note_close(self, mailbox: int) -> None:
        log = self.windows.get(mailbox)
        if log is not None:
            log.closed = True

    def note_attach(self, mailbox: int, handler) -> None:
        log = self.windows.get(mailbox)
        if log is not None:
            log.handlers.append(handler)

    def note_active_effect(self, mailbox: int, epoch: int, effect) -> None:
        log = self.windows.get(mailbox)
        if log is not None:
            log.active_effects[epoch] = effect

    def active_effect(self, mailbox: int, epoch: int):
        """The journaled handler effect of (*mailbox*, *epoch*), or None
        when that epoch has not completed before — the NIC's replay
        discriminator: a hit means re-assert, a miss means fresh run."""
        log = self.windows.get(mailbox)
        return log.active_effects.get(epoch) if log is not None else None

    def note_catch_all(self, mailbox: int) -> None:
        self.catch_all = mailbox


@dataclass
class BufferSnapshot:
    """Mutable counters of the active buffer at checkpoint time."""

    post_index: int  # position in the OpJournal's post order (== epoch)
    counter: int
    bytes_received: int


@dataclass
class MailboxSnapshot:
    """One mailbox's mutable state at checkpoint time."""

    mailbox: int
    epoch: int
    closed: bool
    active: Optional[BufferSnapshot]
    #: retained completed-epoch records (rewind history survives).
    retired: tuple = ()


@dataclass
class NodeCheckpoint:
    """A lightweight snapshot of one node's NIC-resident state."""

    node_id: int
    time: float
    seq: int
    mailboxes: dict[int, MailboxSnapshot] = field(default_factory=dict)
    #: receive-flow cumulative edges: (peer, flow) -> cum.
    rx_cums: dict = field(default_factory=dict)


class CheckpointDaemon:
    """Periodically snapshots a node's NIC state into host memory.

    The tick loop is bounded by ``horizon_ns`` so the simulator's event
    heap still drains (the engine runs to exhaustion); the horizon
    should comfortably exceed the workload's runtime.
    """

    def __init__(self, node, interval_ns: float, horizon_ns: float) -> None:
        if interval_ns <= 0:
            raise ValueError("checkpoint interval must be > 0")
        self.node = node
        self.sim = node.sim
        self.interval_ns = interval_ns
        self.horizon_ns = horizon_ns
        self.latest: Optional[NodeCheckpoint] = None
        self.taken = 0
        self._seq = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.post(self.interval_ns, self._tick)

    def _tick(self) -> None:
        if not self.node.nic.failed:
            self.take()
        if self.sim.now + self.interval_ns <= self.horizon_ns:
            self.sim.post(self.interval_ns, self._tick)

    def take(self) -> Optional[NodeCheckpoint]:
        """Snapshot now (no-op while crashed; stale state is the point
        of checkpoints, but a dead NIC has nothing to read).

        Also a no-op while the NIC is mid-placement: the transport
        advances a flow's cumulative edge at dispatch time, but the DMA
        store lands a PCIe traversal later.  A snapshot taken in that
        gap would pair an advanced edge with a counter that has not
        seen the bytes — restore would then tell the peer "received"
        about data the LUT lost.  Skipping the tick is safe; the next
        quiescent instant produces a consistent pair.
        """
        nic = self.node.nic
        if nic.failed:
            return None
        if not nic.pipeline_quiescent():
            nic.stat("recovery.checkpoints_deferred").add()
            return None
        if nic.transport is not None and not nic.transport.quiescent_rx():
            nic.stat("recovery.checkpoints_deferred").add()
            return None
        self._seq += 1
        ckpt = NodeCheckpoint(node_id=self.node.node_id, time=self.sim.now, seq=self._seq)
        lut = getattr(nic, "lut", None)
        if lut is not None:
            for mailbox, entry in lut.entries.items():
                active = None
                buf = entry.active
                if buf is not None:
                    active = BufferSnapshot(
                        post_index=entry.epoch,
                        counter=buf.counter,
                        bytes_received=buf.bytes_received,
                    )
                ckpt.mailboxes[mailbox] = MailboxSnapshot(
                    mailbox=mailbox,
                    epoch=entry.epoch,
                    closed=entry.closed,
                    active=active,
                    retired=tuple(entry.retired),
                )
        if nic.transport is not None:
            ckpt.rx_cums = dict(nic.transport.rx_cums())
        self.latest = ckpt
        self.taken += 1
        nic.stat("recovery.checkpoints_taken").add()
        self.sim.stats.summary("recovery.checkpoint_mailboxes").add(len(ckpt.mailboxes))
        return ckpt
