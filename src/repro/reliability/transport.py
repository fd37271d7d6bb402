"""Reliable delivery over a lossy fabric (ARQ with SACK + dedup).

RVMA's completion semantics assume every packet that reaches the NIC is
eventually placed; the fault hooks in :mod:`repro.faults` break that
assumption (drops, link flaps, partitions), and a single lost packet
stalls ``wait_completion`` forever under ``EPOCH_BYTES``.  This module
owns reliability in the transport — the same layering RAMC uses to run
notifiable RMA over a lossy Slingshot fabric:

* the **sender** wraps every application message in a
  :class:`~repro.nic.headers.SeqHeader` with a per-(src, dst, mailbox)
  sequence number and retransmits on timeout with exponential backoff
  and deterministic jitter (drawn from named ``sim.rng`` streams), up
  to a configurable retry budget;
* the **receiver** tracks delivered fragments per sequence number,
  suppresses duplicates *before* they reach the NIC's placement path —
  so RVMA's offset-based placement and threshold counters stay
  idempotent — and answers with cumulative+selective ACKs;
* both sides feed the :class:`~repro.reliability.detector.FailureDetector`
  (any receipt from a peer is a liveness proof; an exhausted retry
  budget is immediate evidence of death).

The transport is enabled by setting
:attr:`repro.nic.base.NicConfig.reliability`; with it unset, the NICs
behave exactly as before (happy-path modelling, zero overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..network.message import Delivery, Message, Packet
from ..nic.headers import CONTROL_BYTES, HeartbeatHeader, ReliAckHeader, SeqHeader

#: Cap on the SACK list carried by one ACK (wire-size realism; anything
#: beyond the cap is simply re-acked later or retransmitted).
MAX_SACKS = 64


@dataclass
class ReliabilityConfig:
    """Knobs of the retransmission protocol and failure detector."""

    #: Initial retransmission timeout (ns) — should exceed one RTT.
    retransmit_timeout: float = 30_000.0
    #: Multiplier applied to the timeout after every failed attempt.
    backoff_factor: float = 2.0
    #: Ceiling on the backed-off timeout (ns).
    max_backoff: float = 2_000_000.0
    #: Deterministic jitter: each timeout is stretched by up to this
    #: fraction, drawn from the named stream ``<nic>.rel.jitter`` so
    #: runs stay exactly reproducible and senders desynchronize.
    jitter_frac: float = 0.1
    #: Retransmissions per message before the transport gives up and
    #: reports the peer to the failure detector.
    max_retries: int = 8
    #: Failure-detector probe period (ns).
    heartbeat_interval: float = 50_000.0
    #: Floor on the suspicion timeout (ns) so a quiet-but-alive peer is
    #: not declared dead during normal gaps.
    min_suspicion_timeout: float = 150_000.0


@dataclass
class _TxRecord:
    """One unacknowledged message on the sender side."""

    seq: int
    dst: int
    flow: int
    size: int
    env: SeqHeader
    data: bytes
    mode: object
    timeout: float
    attempts: int = 0
    timer: object = None  # scheduled Event for the pending timeout
    span: object = None  # open observability span (send -> ack), if tracing


@dataclass
class _TxFlow:
    next_seq: int = 1
    pending: dict = field(default_factory=dict)  # seq -> _TxRecord


@dataclass
class _RxPartial:
    """A sequence number some of whose fragments have arrived."""

    inner_msg: Message
    offsets: set = field(default_factory=set)
    bytes_got: int = 0
    #: ordered flows: (offset, Delivery) withheld until dispatch time.
    frags: list = field(default_factory=list)


@dataclass
class _RxFlow:
    cum: int = 0  # every seq <= cum fully delivered
    complete: set = field(default_factory=set)  # out-of-order completed seqs
    partial: dict = field(default_factory=dict)  # seq -> _RxPartial
    #: ordered flows only: next seq the NIC may see, and fully-arrived
    #: messages held back until their turn (seq -> fragment list).
    next_dispatch: int = 1
    held: dict = field(default_factory=dict)

    def advance(self, seq: int) -> None:
        """Mark *seq* fully delivered and slide the cumulative edge."""
        self.complete.add(seq)
        while self.cum + 1 in self.complete:
            self.cum += 1
            self.complete.discard(self.cum)

    def seen(self, seq: int) -> bool:
        return seq <= self.cum or seq in self.complete


class ReliableTransport:
    """Per-NIC reliability layer (sender + receiver halves).

    Installed by :class:`repro.nic.base.BaseNic` when its config carries
    a :class:`ReliabilityConfig`; the NIC routes all application traffic
    through :meth:`send` and registers this object's handlers for the
    envelope/ACK/heartbeat headers.
    """

    def __init__(self, nic, cfg: ReliabilityConfig) -> None:
        self.nic = nic
        self.sim = nic.sim
        self.cfg = cfg
        self._tx: dict[tuple[int, int], _TxFlow] = {}
        self._rx: dict[tuple[int, int], _RxFlow] = {}
        #: per-(dst, flow) retransmit counts for hottest-flow diagnostics.
        self.flow_retransmits: dict[tuple[int, int], int] = {}
        #: invoked with (peer, reason) when a message exhausts its budget.
        self.on_give_up: Optional[Callable[[int, str], None]] = None
        #: invoked with the peer id on every receipt (liveness proof).
        self.on_heard_from: Optional[Callable[[int], None]] = None
        #: crash-restart recovery: duck-typed send journal
        #: (:class:`repro.recovery.checkpoint.SendJournal`); every
        #: :meth:`send` is recorded so a rejoin can replay it.
        self.journal = None
        #: ``<nic>.rel.jitter`` stream, resolved on the first transmit:
        #: the same draws as looking it up by name each time, without
        #: seeding a stream per NIC at build time.
        self._jitter_rng = None
        self._shutdown = False
        self._hb_seq = 0
        #: canonical distribution: attempts needed per acked message.
        self._attempts_summary = self.sim.stats.summary("transport.tx_attempts")
        nic.register_handler(SeqHeader, self._on_seq)
        nic.register_handler(ReliAckHeader, self._on_ack)
        nic.register_handler(HeartbeatHeader, self._on_heartbeat)

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def flow_of(header) -> int:
        """Flow discriminator: the mailbox for RVMA traffic, else 0."""
        return getattr(header, "mailbox", 0) or 0

    def wraps(self, header) -> bool:
        """Whether *header* rides inside the reliability envelope.

        The transport's own control traffic (ACKs, heartbeats) is sent
        raw: its loss is already handled by retransmission/probing, and
        wrapping it would recurse.
        """
        return not isinstance(header, (SeqHeader, ReliAckHeader, HeartbeatHeader))

    # ------------------------------------------------------------------ sender

    def send(self, dst: int, size: int, header, data: bytes, mode) -> Message:
        """Transmit reliably: assign a sequence number, arm the timer."""
        flow = self.flow_of(header)
        fl = self._tx.setdefault((dst, flow), _TxFlow())
        seq = fl.next_seq
        fl.next_seq += 1
        env = SeqHeader(flow=flow, seq=seq, inner=header)
        rec = _TxRecord(
            seq=seq,
            dst=dst,
            flow=flow,
            size=size,
            env=env,
            data=data,
            mode=mode,
            timeout=self.cfg.retransmit_timeout,
        )
        fl.pending[seq] = rec
        if self.journal is not None:
            self.journal.note_send(dst, flow, seq, size, header, data, mode)
        self.nic.stat("transport.tx").add()
        spans = self.sim.spans
        if spans.active and spans.wants("transport"):
            rec.span = spans.begin(
                "transport", "send_to_ack", dst=dst, flow=flow, seq=seq, size=size
            )
        return self._transmit(rec)

    def _transmit(self, rec: _TxRecord) -> Message:
        msg = self.nic.fabric.send(
            self.nic.node_id, rec.dst, rec.size, header=rec.env, data=rec.data, mode=rec.mode
        )
        rng = self._jitter_rng
        if rng is None:
            rng = self._jitter_rng = self.sim.rng.stream(f"{self.nic.name}.rel.jitter")
        jitter = 1.0 + self.cfg.jitter_frac * rng.random()
        rec.timer = self.sim.schedule(
            rec.timeout * jitter, self._on_timeout, rec.dst, rec.flow, rec.seq
        )
        return msg

    def _on_timeout(self, dst: int, flow: int, seq: int) -> None:
        fl = self._tx.get((dst, flow))
        rec = fl.pending.get(seq) if fl is not None else None
        if rec is None:
            return  # acked in the meantime
        if self.nic.failed:
            # A dead node retransmits nothing; drop the pending state so
            # the event heap drains and the simulation terminates.
            fl.pending.pop(seq, None)
            self.sim.spans.end(rec.span, outcome="sender_failed")
            return
        rec.attempts += 1
        if rec.attempts > self.cfg.max_retries:
            fl.pending.pop(seq, None)
            self.nic.stat("transport.gave_up").add()
            self.sim.spans.end(rec.span, outcome="gave_up", attempts=rec.attempts)
            if self.on_give_up is not None:
                self.on_give_up(dst, f"retry budget exhausted (flow {flow:#x} seq {seq})")
            return
        rec.timeout = min(rec.timeout * self.cfg.backoff_factor, self.cfg.max_backoff)
        rec.env = SeqHeader(flow=flow, seq=seq, inner=rec.env.inner, attempt=rec.attempts)
        key = (dst, flow)
        self.flow_retransmits[key] = self.flow_retransmits.get(key, 0) + 1
        self.nic.stat("transport.retransmits").add()
        self._transmit(rec)

    def _on_ack(self, delivery: Delivery) -> None:
        hdr: ReliAckHeader = delivery.message.header
        peer = delivery.message.src
        self._heard(peer)
        self.nic.stat("transport.acks_rx").add()
        fl = self._tx.get((peer, hdr.flow))
        if fl is None:
            return
        sacks = set(hdr.sacks)
        spans = self.sim.spans
        attempts = self._attempts_summary
        for seq in [s for s in fl.pending if s <= hdr.cum or s in sacks]:
            rec = fl.pending.pop(seq)
            if rec.timer is not None:
                rec.timer.cancel()
            attempts.add(rec.attempts + 1)
            if rec.span is not None:
                spans.end(rec.span, outcome="acked", attempts=rec.attempts + 1)

    def unacked(self, dst: Optional[int] = None) -> int:
        """Outstanding unacknowledged messages (optionally to one peer)."""
        return sum(
            len(fl.pending)
            for (d, _f), fl in self._tx.items()
            if dst is None or d == dst
        )

    # ------------------------------------------------------------------ receiver

    def _on_seq(self, delivery: Delivery) -> None:
        msg = delivery.message
        env: SeqHeader = msg.header
        peer = msg.src
        self._heard(peer)
        rx = self._rx.setdefault((peer, env.flow), _RxFlow())
        if rx.seen(env.seq):
            # Whole-message duplicate (a retransmit raced the ACK, or the
            # ACK was lost): suppress before placement, re-ack so the
            # sender's timer dies.
            self.nic.stat("transport.dups_suppressed").add()
            self._send_ack(peer, env.flow, rx)
            return
        part = rx.partial.get(env.seq)
        if part is None:
            # Rebuild the inner message once per sequence number so every
            # fragment (and every retransmission) feeds the same
            # application-level op.
            inner_msg = Message(
                src=msg.src, dst=msg.dst, size=msg.size, header=env.inner, data=msg.data
            )
            inner_msg.send_time = msg.send_time
            part = rx.partial[env.seq] = _RxPartial(inner_msg=inner_msg)
        if delivery.packet is None:
            frag_key, got, inner_pkt = 0, msg.size, None
        else:
            pkt = delivery.packet
            frag_key, got = pkt.offset, pkt.size
            if frag_key in part.offsets:
                self.nic.stat("transport.dups_suppressed").add()
                return  # duplicate fragment of a still-incomplete message
            inner_pkt = Packet(
                message=part.inner_msg,
                seq=pkt.seq,
                offset=pkt.offset,
                size=pkt.size,
                data=pkt.data,
                is_last=pkt.is_last,
            )
        part.offsets.add(frag_key)
        part.bytes_got += got
        item = Delivery(
            part.inner_msg, delivery.arrival_time, delivery.hops, delivery.path_index, inner_pkt
        )
        ordered = self.nic.flow_ordered(env.flow)
        if ordered:
            # Receiver-Managed flows: appends must land in stream order,
            # so hold every fragment until the message is complete and
            # the sequence number is next in line.
            part.frags.append((frag_key, item))
        else:
            self.nic.dispatch_inner(item)
        if part.bytes_got >= part.inner_msg.size:
            del rx.partial[env.seq]
            rx.advance(env.seq)
            if ordered:
                rx.held[env.seq] = part.frags
                self._flush_ordered(peer, env.flow, rx)
            else:
                self._note_dispatched(peer, env.flow, env.seq)
            self.nic.stat("transport.delivered").add()
            self._send_ack(peer, env.flow, rx)

    def _flush_ordered(self, peer: int, flow: int, rx: _RxFlow) -> None:
        """Dispatch held messages of an ordered flow, strictly in
        sequence order (and each message's fragments in offset order)."""
        room = self.nic.flow_room(flow)
        while rx.next_dispatch in rx.held:
            seq = rx.next_dispatch
            frags = rx.held[seq]
            if room is not None and frags:
                msg = frags[0][1].message
                need = getattr(msg.header, "total_size", msg.size)
                if need > room:
                    # Receiver pacing: the MANAGED bucket cannot absorb
                    # the whole message, and a partial append followed
                    # by a NACKed retry would duplicate the placed
                    # prefix mid-stream.  Keep it held — the NIC pokes
                    # us again when the application posts a buffer.
                    self.nic.stat("transport.rx_paced").add()
                    break
                room -= need
            for _off, item in sorted(rx.held.pop(seq), key=lambda p: p[0]):
                self.nic.dispatch_inner(item)
            self._note_dispatched(peer, flow, seq)
            rx.next_dispatch += 1

    def on_buffer_posted(self, flow: int) -> None:
        """NIC hook: a buffer landed in *flow*'s bucket — ordered
        messages held back by receiver pacing may now fit."""
        for (peer, f), rx in list(self._rx.items()):
            if f == flow and rx.held:
                self._flush_ordered(peer, f, rx)

    def _note_dispatched(self, peer: int, flow: int, seq: int) -> None:
        aud = self.nic.auditor
        if aud is not None:
            aud.on_transport_dispatch(self.nic.node_id, peer, flow, seq)

    def _send_ack(self, peer: int, flow: int, rx: _RxFlow) -> None:
        if self.nic.failed:
            return
        sacks = tuple(sorted(rx.complete)[:MAX_SACKS])
        self.nic.stat("transport.acks_tx").add()
        self.nic.fabric.send(
            self.nic.node_id,
            peer,
            CONTROL_BYTES,
            header=ReliAckHeader(flow=flow, cum=rx.cum, sacks=sacks),
        )

    # ------------------------------------------------------------------ heartbeats

    def send_ping(self, peer: int) -> None:
        """Emit one failure-detector probe (raw, unreliable by design)."""
        if self.nic.failed:
            return
        self._hb_seq += 1
        self.nic.stat("transport.pings_tx").add()
        self.nic.fabric.send(
            self.nic.node_id,
            peer,
            CONTROL_BYTES,
            header=HeartbeatHeader(kind="ping", seq=self._hb_seq),
        )

    def _on_heartbeat(self, delivery: Delivery) -> None:
        hdr: HeartbeatHeader = delivery.message.header
        peer = delivery.message.src
        self._heard(peer)
        if hdr.kind == "ping" and not self.nic.failed:
            self.nic.fabric.send(
                self.nic.node_id,
                peer,
                CONTROL_BYTES,
                header=HeartbeatHeader(kind="pong", seq=hdr.seq),
            )

    def _heard(self, peer: int) -> None:
        if self.on_heard_from is not None:
            self.on_heard_from(peer)

    # ------------------------------------------------------------------ crash-restart recovery

    def shutdown(self) -> None:
        """Silence this transport forever (its NIC crashed).

        Cancels every retransmission timer and clears flow state so the
        zombie instance can neither resend with stale sequence numbers
        nor fire give-up suspicion after the node's next incarnation
        takes over.
        """
        self._shutdown = True
        for fl in self._tx.values():
            for rec in fl.pending.values():
                if rec.timer is not None:
                    rec.timer.cancel()
        self._tx.clear()
        self._rx.clear()
        self.on_give_up = None
        self.on_heard_from = None
        self.journal = None

    def quiescent_rx(self) -> bool:
        """Whether no receive flow has partially arrived or withheld
        messages.  Checkpoints require this: a cumulative edge advanced
        past data the NIC has not fully placed would, after restore,
        count bytes the LUT never saw."""
        return not any(fl.partial or fl.held for fl in self._rx.values())

    def rx_cums(self, peer: Optional[int] = None) -> dict[tuple[int, int], int]:
        """Receive-side cumulative edges per (peer, flow) — the state a
        checkpoint persists and a rejoin negotiates from."""
        return {
            (p, flow): fl.cum
            for (p, flow), fl in self._rx.items()
            if peer is None or p == peer
        }

    def restore_rx_flow(self, peer: int, flow: int, cum: int) -> None:
        """Reinstate a receive flow at a checkpointed cumulative edge.

        Anything beyond ``cum`` was lost with the NIC: the peer will
        replay it, and the replay is accepted as new (out-of-order
        completions and held messages are deliberately *not* restored —
        re-dispatch of a replayed message is idempotent for steered
        windows and required for ordered ones that never dispatched)."""
        self._rx[(peer, flow)] = _RxFlow(cum=cum, next_dispatch=cum + 1)

    def seed_tx_flow(self, dst: int, flow: int, next_seq: int) -> None:
        """Continue a flow's sequence space across a crash (never rewind:
        receivers dedup by seq, so reuse would silently drop sends)."""
        fl = self._tx.setdefault((dst, flow), _TxFlow())
        fl.next_seq = max(fl.next_seq, next_seq)

    def replay_flows(self, dst: int, cums: dict, journal) -> list[str]:
        """Resend journaled messages the peer proved it never received.

        ``cums`` maps flow -> the peer's cumulative sequence edge for
        traffic from this node; every journaled send beyond it is
        retransmitted with its *original* sequence number (the peer's
        dedup state stays valid).  Returns a list of coverage holes —
        flows whose journal no longer retains a needed entry — for the
        recovery report; an empty list means full replay coverage.
        """
        holes: list[str] = []
        flows = set(cums) | set(journal.flows_for(dst))
        for flow in sorted(flows):
            cum = cums.get(flow, 0)
            fl = self._tx.setdefault((dst, flow), _TxFlow())
            for seq in [s for s in fl.pending if s <= cum]:
                rec = fl.pending.pop(seq)
                if rec.timer is not None:
                    rec.timer.cancel()
            entries, hole = journal.entries_after(dst, flow, cum)
            if hole:
                holes.append(
                    f"node{self.nic.node_id}->node{dst} flow {flow:#x}: "
                    f"journal retains from seq {hole}, peer needs {cum + 1}"
                )
            for e in entries:
                rec = fl.pending.get(e.seq)
                if rec is None:
                    env = SeqHeader(flow=flow, seq=e.seq, inner=e.header)
                    rec = _TxRecord(
                        seq=e.seq, dst=dst, flow=flow, size=e.size, env=env,
                        data=e.data, mode=e.mode, timeout=self.cfg.retransmit_timeout,
                    )
                    fl.pending[e.seq] = rec
                elif rec.timer is not None:
                    rec.timer.cancel()
                self.nic.stat("recovery.replayed_msgs").add()
                self._transmit(rec)
            fl.next_seq = max(fl.next_seq, journal.next_seq_hint(dst, flow))
        return holes

    # ------------------------------------------------------------------ diagnostics

    def hottest_flows(self, k: int = 10) -> list[tuple[str, int]]:
        """Top-*k* flows by retransmissions — ``hottest_channels``-style
        debug output for chaos runs (which mailbox is suffering)."""
        ranked = sorted(
            self.flow_retransmits.items(), key=lambda kv: kv[1], reverse=True
        )[:k]
        return [
            (f"{self.nic.name}->node{dst}[mbox {flow:#x}]", n)
            for (dst, flow), n in ranked
        ]


def hottest_retransmit_flows(cluster, k: int = 10) -> list[tuple[str, int]]:
    """Cluster-wide hottest flows by retransmit count (diagnostics)."""
    rows: list[tuple[str, int]] = []
    for node in cluster.nodes:
        transport = getattr(node.nic, "transport", None)
        if transport is not None:
            rows.extend(transport.hottest_flows(k))
    rows.sort(key=lambda kv: kv[1], reverse=True)
    return rows[:k]
