"""The RVMA NIC model — the paper's proposed hardware (Figs 2 and 3).

Receive path (paper Fig 3): lookup the mailbox in the LUT, steer the
payload into the active posted buffer (offset-addressed, so packet
arrival order is irrelevant), update the threshold counter, and on
threshold crossing write ``(head pointer, length)`` to the buffer's
completion address, retire the buffer and activate the next one in the
bucket.  The host never sees a buffer until its epoch completes.

Initiator path: a put carries only (mailbox, offset); local completion
means the payload has left the NIC (send-buffer reuse), not that the
target acted on it — RVMA needs no remote acknowledgement for its
completion semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.address import RVMA_ADDR_MASK
from ..memory.buffer import HostBuffer, PostedBuffer
from ..memory.memory import NodeMemory
from ..network.fabric import BaseFabric
from ..network.message import Delivery
from ..network.routing import RoutingMode
from ..sim.engine import Simulator
from ..sim.process import Future
from .base import BaseNic, NicConfig
from .headers import (
    NackReason,
    RvmaGetHeader,
    RvmaGetReply,
    RvmaNackHeader,
    RvmaPutHeader,
    next_op_id,
)
from .lut import BufferMode, EpochType, LutError, MailboxEntry, MailboxLUT, RetiredBuffer


@dataclass
class RvmaNicConfig(NicConfig):
    """RVMA-specific sizing on top of the common NIC cost model."""

    lut_entries: int = 4096
    #: On-NIC threshold counters; active buffers beyond this spill to
    #: host memory (completion checks then pay a PCIe round trip).
    nic_counters: int = 1024
    #: Retired (completed-epoch) buffers retained per mailbox for rewind.
    retain_epochs: int = 8
    #: Whether discarded operations generate NACKs (disable under DoS).
    send_nacks: bool = True
    #: Backoff and budget of the initiator-side retry of
    #: NO_BUFFER/NO_MAILBOX-NACKed puts (bucket momentarily empty under
    #: incast, or the peer's window still being initialised) — analogous
    #: to IB RNR retry.
    put_retry_timeout: float = 2000.0
    put_retries: int = 64


@dataclass(slots=True)
class PutOp:
    """Initiator-side handle for an RVMA put.

    No table holds it: each attempt's header and each NACK links it
    (:attr:`repro.nic.headers.RvmaPutHeader.op`), so it lives exactly
    as long as a message in flight, an unacked transport record or a
    send-journal entry can still name it.
    """

    op_id: int
    dst: int
    mailbox: int
    size: int
    local_done: Future
    nacked: Optional[NackReason] = None
    #: retry state: (data, offset, mode, retries_left)
    retry: Optional[tuple] = None
    #: abandoned for good; later NACKs for its other packets are not
    #: new losses.
    lost: bool = False
    #: puts the initiating NIC had issued, this one included; a put
    #: issued before its target was last suspected is not retried.
    index: int = 0
    #: the initiating NIC's incarnation at issue; a NACK for a put from
    #: before a crash-restart is not acted on.
    incarnation: int = 0


@dataclass
class GetOp:
    """Initiator-side handle for an RVMA get."""

    op_id: int
    dst: int
    mailbox: int
    length: int
    done: Future  # resolves True (data placed) or False (NACK/out of bounds)


class RvmaNic(BaseNic):
    """RVMA-capable NIC bound to one node."""

    metric_group = "nic.rvma"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        memory: NodeMemory,
        fabric: BaseFabric,
        config: Optional[RvmaNicConfig] = None,
        name: str = "",
    ) -> None:
        config = config or RvmaNicConfig()
        super().__init__(sim, node_id, memory, fabric, config, name or f"rvma{node_id}")
        self.cfg: RvmaNicConfig = config
        self.lut = MailboxLUT(
            max_entries=config.lut_entries,
            max_counters=config.nic_counters,
            retain_epochs=config.retain_epochs,
        )
        #: bytes received so far per in-flight multi-packet op (op counting).
        self._op_bytes: dict[int, int] = {}
        self._gets: dict[int, GetOp] = {}
        self._puts_issued = 0
        #: peer -> ``_puts_issued`` when it was last suspected.
        self._suspected_at: dict[int, int] = {}
        #: crash-restart recovery: duck-typed host-side journal of
        #: window-structure commands (:class:`repro.recovery.checkpoint.OpJournal`).
        #: None (the default) costs one attribute check per command.
        self.op_journal = None
        #: active-mailbox handler registry (:class:`repro.nic.active.ActiveRegistry`),
        #: created lazily on the first ``hw_attach_handler``.  None (the
        #: default) costs one attribute check per admit/completion.
        self.active = None
        #: puts admitted by the transport/fabric but whose DMA placement
        #: is still in the PCIe pipeline; checkpoints must not land in
        #: that gap (the rx cum would count bytes the LUT hasn't seen).
        self._inflight_admits = 0
        #: per-mailbox bytes in that same gap for MANAGED flows, so
        #: :meth:`flow_room` does not double-count room the pipeline
        #: has already promised to in-flight appends.
        self._inflight_flow_bytes: dict[int, int] = {}
        #: canonical distribution: bytes accumulated per retired epoch.
        self._epoch_hist = sim.stats.histogram(
            "nic.rvma.epoch_bytes", 0.0, float(1 << 20), 64
        )
        self.register_handler(RvmaPutHeader, self._on_put)
        self.register_handler(RvmaGetHeader, self._on_get)
        self.register_handler(RvmaGetReply, self._on_get_reply)
        self.register_handler(RvmaNackHeader, self._on_nack)

    # ------------------------------------------------------------------ crash-restart

    def _destroy_volatile_state(self) -> None:
        """Crash-stop: everything NIC-resident is gone.

        The LUT (mailboxes, buckets, retained epochs), in-flight op
        tracking and retry state all die with the hardware; outstanding
        gets resolve False so host software blocks on a completion, not
        forever.  Host memory and host-side journals survive — that is
        what the recovery protocol rebuilds from.
        """
        for op in list(self._gets.values()):
            if not op.done.done:
                op.done.resolve(False)
        self._gets.clear()
        self._op_bytes.clear()
        self.lut = MailboxLUT(
            max_entries=self.cfg.lut_entries,
            max_counters=self.cfg.nic_counters,
            retain_epochs=self.cfg.retain_epochs,
        )
        if self.active is not None:
            # Handler bindings (and their words/views) are NIC SRAM:
            # they die too, and rejoin re-attaches them from the journal.
            self.active.crash_reset()

    def flow_ordered(self, flow: int) -> bool:
        # Peek the table directly: this is transport bookkeeping, not an
        # RVMA probe, so it must not perturb the LUT lookup counters.
        entry = self.lut.entries.get(flow & RVMA_ADDR_MASK)
        return entry is not None and entry.mode is BufferMode.MANAGED

    def flow_room(self, flow: int) -> Optional[int]:
        """Free append room in a MANAGED flow's bucket (``None`` when the
        flow is not receiver-paced).

        The transport holds an ordered message until the whole thing
        fits: a partial append followed by a NO_BUFFER NACK would leave
        the placed prefix behind, and the initiator's retry would then
        duplicate those bytes at a later stream position.  Capacity is
        clamped to the journaled replay boundary during rejoin replay,
        and bytes still in the PCIe admit gap are already spoken for.
        """
        entry = self.lut.entries.get(flow & RVMA_ADDR_MASK)
        if entry is None or entry.mode is not BufferMode.MANAGED:
            return None
        room = 0
        for buf in entry.queue:
            cap = buf.buffer.size
            if buf.replay_boundary and entry.threshold_type is EpochType.EPOCH_BYTES:
                cap = min(cap, buf.threshold)
            room += max(cap - buf.bytes_received, 0)
        return max(room - self._inflight_flow_bytes.get(entry.mailbox, 0), 0)

    # ------------------------------------------------------------------ host API
    # All host-initiated commands return Futures resolved after the
    # modelled PCIe/descriptor costs, so software layers just `yield`.

    def hw_init_window(
        self,
        mailbox: int,
        threshold_type: EpochType = EpochType.EPOCH_BYTES,
        mode: BufferMode = BufferMode.STEERED,
    ) -> Future:
        """Create the LUT entry for a mailbox.  Resolves with the entry."""
        fut = self.future()

        def do() -> None:
            try:
                entry = self.lut.init_entry(mailbox, threshold_type, mode)
            except LutError as exc:
                fut.resolve(exc)
                return
            if self.op_journal is not None:
                self.op_journal.note_init(entry.mailbox, threshold_type, mode)
            fut.resolve(entry)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_post_buffer(
        self,
        mailbox: int,
        buffer: HostBuffer,
        threshold: int,
        notification_addr: int,
        length_addr: int,
    ) -> Future:
        """Attach a buffer to a mailbox's bucket.  Resolves with the
        :class:`PostedBuffer` (or an exception object on error)."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            if entry is None:
                fut.resolve(LutError(f"mailbox {mailbox:#x} not initialised"))
                return
            pb = PostedBuffer(
                buffer=buffer,
                notification_addr=notification_addr,
                length_addr=length_addr,
                threshold=threshold,
            )
            self.lut.post(entry, pb)
            if self.op_journal is not None:
                self.op_journal.note_post(entry.mailbox, pb)
            self.stat("nic.rvma.buffers_posted").add()
            if self.transport is not None:
                self.transport.on_buffer_posted(entry.mailbox)
            fut.resolve(pb)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_close(self, mailbox: int) -> Future:
        """Close the window: subsequent ops are discarded (maybe NACKed)."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            if entry is not None:
                entry.closed = True
                if self.op_journal is not None:
                    self.op_journal.note_close(entry.mailbox)
            fut.resolve(entry is not None)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_inc_epoch(self, mailbox: int) -> Future:
        """Pre-empt hardware completion: hand the active buffer to software
        now (paper's ``RVMA_Win_inc_epoch``).  Resolves with the
        :class:`RetiredBuffer` record or None if nothing was active."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            if entry is None or entry.active is None:
                fut.resolve(None)
                return
            if entry.active.replay_boundary:
                # Rejoin replay in progress: the active buffer must close
                # at its journaled boundary, not wherever this flush
                # happens to land.  The caller's wait_completion blocks
                # until replay re-creates the epoch it is waiting for.
                fut.resolve(None)
                return
            record = self._complete_active(entry)
            fut.resolve(record)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_set_threshold(self, mailbox: int, threshold: int) -> Future:
        """Retarget the active buffer's completion threshold.

        Covers the paper's "completion criteria is definable for most
        codes" escape hatch: when the expected operation/byte count only
        becomes known later (e.g. at an MPI fence after a count
        exchange), software installs it and hardware completes the
        epoch as soon as the counter reaches it — possibly immediately.
        Resolves True if a window with an active buffer was found.
        """
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            buf = entry.active if entry is not None else None
            if buf is None:
                fut.resolve(False)
                return
            buf.threshold = threshold
            if buf.counter >= buf.threshold > 0:
                self._complete_active(entry)
            fut.resolve(True)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_get_epoch(self, mailbox: int) -> Future:
        """Read the mailbox's current epoch (a PCIe round trip)."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            fut.resolve(entry.epoch if entry is not None else -1)

        self.sim.post(self.pcie.round_trip(), do)
        return fut

    def hw_rewind(self, mailbox: int, epochs_back: int = 1) -> Future:
        """Fetch a prior epoch's buffer record for fault recovery
        (paper §IV-F).  Resolves with :class:`RetiredBuffer` or None."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            fut.resolve(None if entry is None else self.lut.rewind(entry, epochs_back))

        self.sim.post(self.pcie.round_trip(), do)
        return fut

    def hw_set_catch_all(self, mailbox: int) -> Future:
        """Designate an initialised mailbox as the catch-all bucket."""
        fut = self.future()

        def do() -> None:
            entry = self.lut.lookup(mailbox)
            self.lut.set_catch_all(entry)
            if entry is not None and self.op_journal is not None:
                self.op_journal.note_catch_all(entry.mailbox)
            fut.resolve(entry is not None)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def _active_registry(self):
        if self.active is None:
            from .active import ActiveRegistry

            self.active = ActiveRegistry(self)
        return self.active

    def hw_attach_handler(self, mailbox: int, handler) -> Future:
        """Bind an active-mailbox handler (:mod:`repro.nic.active`) so
        the completion unit executes it at threshold time.  Resolves
        with the :class:`~repro.nic.active.ActiveBinding` (or an
        exception object on error)."""
        fut = self.future()

        def do() -> None:
            try:
                binding = self._active_registry().attach(mailbox, handler)
            except LutError as exc:
                fut.resolve(exc)
                return
            if self.op_journal is not None:
                self.op_journal.note_attach(binding.mailbox, handler)
            fut.resolve(binding)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_active_word(self, mailbox: int) -> Future:
        """Read a word handler's NIC-resident word (a PCIe round trip).
        Resolves with the int, or None when no word handler is bound."""
        fut = self.future()

        def do() -> None:
            reg = self.active
            fut.resolve(None if reg is None else reg.word_value(mailbox & RVMA_ADDR_MASK))

        self.sim.post(self.pcie.round_trip(), do)
        return fut

    def hw_kv_sync(
        self,
        mailbox: int,
        key: bytes,
        value: Optional[bytes] = None,
        delete: bool = False,
        executed: bool = True,
    ) -> Future:
        """Host → NIC hot-key view sync after executing (``executed=True``,
        with the new *value* or ``delete``) or shedding (``executed=False``)
        a write on a hot key.  Resolves True when a KV handler is bound."""
        fut = self.future()

        def do() -> None:
            reg = self.active
            fut.resolve(
                False
                if reg is None
                else reg.kv_sync(mailbox & RVMA_ADDR_MASK, key, value, delete, executed)
            )

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_put(
        self,
        dst: int,
        mailbox: int,
        size: int,
        data: bytes = b"",
        offset: int = 0,
        mode: Optional[RoutingMode] = None,
    ) -> PutOp:
        """Initiate an RVMA put.  ``local_done`` resolves when the payload
        has fully left this NIC (send buffer reusable)."""
        self._puts_issued += 1
        op = PutOp(
            op_id=next_op_id(),
            dst=dst,
            mailbox=mailbox,
            size=size,
            local_done=self.future(),
            retry=(data, offset, mode, self.cfg.put_retries),
            index=self._puts_issued,
            incarnation=self.incarnation,
        )

        def issue() -> None:
            hdr = RvmaPutHeader(
                mailbox=mailbox, offset=offset, total_size=size, op_id=op.op_id, op=op
            )
            self._inject_now(dst, size, hdr, data, mode)
            # With None, not the op: the op holds its own future, and
            # a put handle must stay acyclic so refcounting frees it.
            self.resolve_at(op.local_done, self.local_injection_done())

        self.sim.post(self.cfg.issue_latency(), issue)
        return op

    def hw_get(
        self,
        dst: int,
        mailbox: int,
        length: int,
        dest_buffer: HostBuffer,
        offset: int = 0,
        mode: Optional[RoutingMode] = None,
    ) -> GetOp:
        """Initiate an RVMA get from the target's *active* buffer."""
        if length > dest_buffer.size:
            raise ValueError("destination buffer too small for get")
        hdr = RvmaGetHeader(mailbox=mailbox, offset=offset, length=length)
        op = GetOp(op_id=hdr.op_id, dst=dst, mailbox=mailbox, length=length, done=self.future())
        op._dest = dest_buffer  # type: ignore[attr-defined]
        op._mode = mode  # type: ignore[attr-defined]
        self._gets[hdr.op_id] = op
        self.sim.post(
            self.cfg.issue_latency(), self.send_control, dst, hdr, mode
        )
        return op

    # ------------------------------------------------------------------ failures

    def on_peer_suspected(self, record) -> None:
        """Fail outstanding ops targeting a suspected-dead peer.

        Gets would otherwise hang forever waiting for a reply that can
        never come; puts issued so far are not retried on a NACK, so
        resends to a corpse stop (even after a reinstate).  The
        application-level signal is the ``PeerFailed`` completion
        surfaced through the API/detector.
        """
        super().on_peer_suspected(record)
        peer = record.peer
        for op_id in [i for i, g in self._gets.items() if g.dst == peer]:
            op = self._gets.pop(op_id)
            self._op_bytes.pop(-op_id, None)
            self.stat("nic.rvma.gets_failed_peer_death").add()
            op.done.resolve(False)
        self._suspected_at[peer] = self._puts_issued

    # ------------------------------------------------------------------ receive path

    def _resolve_target(self, hdr: RvmaPutHeader | RvmaGetHeader, src: int):
        """LUT lookup with catch-all fallback; emits NACKs on failure.

        Returns (entry, buffer) or (None, None) when the op is discarded.
        """
        entry = self.lut.lookup(hdr.mailbox)
        if entry is None:
            if self.lut.catch_all is not None and self.lut.catch_all.active is not None:
                self.stat("nic.rvma.catch_all_hits").add()
                return self.lut.catch_all, self.lut.catch_all.active
            self._nack(src, hdr, NackReason.NO_MAILBOX)
            return None, None
        if entry.closed:
            self._nack(src, hdr, NackReason.CLOSED)
            return None, None
        buf = entry.active
        if buf is None:
            if self.lut.catch_all is not None and self.lut.catch_all.active is not None:
                self.stat("nic.rvma.catch_all_hits").add()
                return self.lut.catch_all, self.lut.catch_all.active
            self._nack(src, hdr, NackReason.NO_BUFFER)
            return None, None
        return entry, buf

    def _on_put(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RvmaPutHeader = msg.header
        if delivery.packet is None:
            frag_off, nbytes, data = 0, msg.size, msg.data
        else:
            frag_off = delivery.packet.offset
            nbytes = delivery.packet.size
            data = delivery.packet.data
        # The DMA placement lands one PCIe traversal after NIC processing;
        # LUT resolution happens atomically with placement so an epoch
        # completing in the gap steers this data to the *new* active
        # buffer (as the hardware pipeline would).
        self._inflight_admits += 1
        mailbox = hdr.mailbox & RVMA_ADDR_MASK
        peek = self.lut.entries.get(mailbox)
        if peek is not None and peek.mode is BufferMode.MANAGED:
            self._inflight_flow_bytes[mailbox] = (
                self._inflight_flow_bytes.get(mailbox, 0) + nbytes
            )
        self.sim.post(
            self.pcie.latency, self._admit_put, hdr, msg.src, frag_off, nbytes, data
        )

    def pipeline_quiescent(self) -> bool:
        """No placement is between fabric admission and DMA landing."""
        return self._inflight_admits == 0

    def _admit_put(
        self, hdr: RvmaPutHeader, src: int, frag_off: int, nbytes: int, data: bytes
    ) -> None:
        self._inflight_admits -= 1
        mailbox = hdr.mailbox & RVMA_ADDR_MASK
        if mailbox in self._inflight_flow_bytes:
            left = self._inflight_flow_bytes[mailbox] - nbytes
            if left > 0:
                self._inflight_flow_bytes[mailbox] = left
            else:
                del self._inflight_flow_bytes[mailbox]
        if self.failed:
            # The NIC crashed in the pipeline gap between arrival and
            # DMA placement: the data dies with it (the reliability
            # layer will retransmit into the next incarnation).
            self.stat("nic.rvma.rx_dropped_failed").add()
            return
        quota = self.placement_quota
        if quota is not None and not quota.admit(src, mailbox, nbytes, self.sim.now):
            # Tenant over its placement quota: reject the whole put
            # before any bytes land (a partial append rejected mid-put
            # would duplicate its prefix on a client retry).
            self.stat("nic.rvma.quota_rejects").add()
            self.stat("nic.rvma.puts_discarded").add()
            self._nack(src, hdr, NackReason.QUOTA)
            return
        if self.active is not None:
            # Active-mailbox predicate filter: reject non-matching
            # payloads before any bytes land.  A passing put pays the
            # predicate-evaluation cost before placement.
            verdict = self.active.filter_put(hdr, src, frag_off, nbytes, data)
            if verdict is None:
                self.stat("nic.rvma.puts_discarded").add()
                return
            if verdict > 0.0:
                self._inflight_admits += 1
                self.sim.post(verdict, self._place_filtered, hdr, src, frag_off, nbytes, data)
                return
        self._place_admitted(hdr, src, frag_off, nbytes, data)

    def _place_filtered(
        self, hdr: RvmaPutHeader, src: int, frag_off: int, nbytes: int, data: bytes
    ) -> None:
        """Placement after a passing predicate evaluation (filter cost)."""
        self._inflight_admits -= 1
        if self.failed:
            self.stat("nic.rvma.rx_dropped_failed").add()
            return
        self._place_admitted(hdr, src, frag_off, nbytes, data)

    def _place_admitted(
        self, hdr: RvmaPutHeader, src: int, frag_off: int, nbytes: int, data: bytes
    ) -> None:
        entry, buf = self._resolve_target(hdr, src)
        if entry is None:
            self.stat("nic.rvma.puts_discarded").add()
            return
        if entry.mode is BufferMode.MANAGED:
            # Stream append (paper §IV-B): bytes flow across chunk
            # buffers, so no single-buffer bounds check applies here.
            self._place_managed(entry, hdr, src, nbytes, data)
            return
        place_off = hdr.offset + frag_off
        if place_off + nbytes > buf.buffer.size:
            self._nack(src, hdr, NackReason.OUT_OF_BOUNDS)
            self.stat("nic.rvma.puts_discarded").add()
            return
        self._place(entry, buf, hdr, place_off, nbytes, data)

    def _place(
        self,
        entry: MailboxEntry,
        buf: PostedBuffer,
        hdr: RvmaPutHeader,
        place_off: int,
        nbytes: int,
        data: bytes,
    ) -> None:
        if data:
            buf.buffer.write(place_off, data)
        buf.bytes_received = max(buf.bytes_received, place_off + nbytes)
        self.stat("nic.rvma.bytes_placed").add(nbytes)
        spans = self.sim.spans
        if spans.active and buf._obs_span is None and spans.wants("nic"):
            buf._obs_span = spans.begin(
                "nic", "epoch_fill", nic=self.name, mailbox=entry.mailbox
            )

        if entry.threshold_type is EpochType.EPOCH_BYTES:
            buf.counter += nbytes
        else:
            got = self._op_bytes.get(hdr.op_id, 0) + nbytes
            if got >= hdr.total_size:
                self._op_bytes.pop(hdr.op_id, None)
                buf.counter += 1
            else:
                self._op_bytes[hdr.op_id] = got
        aud = self.auditor
        if aud is not None:
            aud.on_place(self, entry, buf, place_off, nbytes, data)
        if buf.counter >= buf.threshold > 0:
            self._complete_active(entry)

    def _place_managed(
        self, entry: MailboxEntry, hdr: RvmaPutHeader, src: int, nbytes: int, data: bytes
    ) -> None:
        """Receiver-Managed placement: append bytes into the active
        buffer, rolling across chunk boundaries; each filled chunk
        completes its epoch and the stream continues in the next buffer
        of the bucket (paper §IV-B sockets semantics)."""
        if nbytes == 0:
            # Zero-byte put: no stream bytes, but it is still one
            # operation (same doorbell semantics as steered windows).
            buf = entry.active
            if buf is None:
                self.stat("nic.rvma.puts_discarded").add()
                self._nack(src, hdr, NackReason.NO_BUFFER)
                return
            if entry.threshold_type is EpochType.EPOCH_OPS and hdr.total_size == 0:
                buf.counter += 1
                if buf.counter >= buf.threshold > 0:
                    self._complete_active(entry)
            return
        consumed = 0
        while nbytes > 0:
            buf = entry.active
            if buf is None:
                # Stream overran the posted bucket: remainder is lost.
                self.stat("nic.rvma.puts_discarded").add()
                self._nack(src, hdr, NackReason.NO_BUFFER)
                break
            room = buf.buffer.size - buf.bytes_received
            if buf.replay_boundary and entry.threshold_type is EpochType.EPOCH_BYTES:
                # Rejoin replay: this buffer's epoch originally closed at
                # a journaled byte boundary (possibly a flush mid-chunk);
                # stop the append there so the rebuilt stream tiles the
                # buckets exactly as the first run did.
                room = min(room, max(buf.threshold - buf.counter, 0))
            take = min(room, nbytes)
            if take > 0:
                append_at = buf.bytes_received
                if data:
                    buf.buffer.write(append_at, data[consumed : consumed + take])
                buf.bytes_received += take
                self.stat("nic.rvma.bytes_placed").add(take)
                spans = self.sim.spans
                if spans.active and buf._obs_span is None and spans.wants("nic"):
                    buf._obs_span = spans.begin(
                        "nic", "epoch_fill", nic=self.name, mailbox=entry.mailbox
                    )
                if entry.threshold_type is EpochType.EPOCH_BYTES:
                    buf.counter += take
                aud = self.auditor
                if aud is not None:
                    aud.on_place(
                        self, entry, buf, append_at, take,
                        data[consumed : consumed + take] if data else b"",
                    )
                consumed += take
                nbytes -= take
            if entry.threshold_type is EpochType.EPOCH_OPS and nbytes == 0:
                got = self._op_bytes.get(hdr.op_id, 0) + consumed
                if got >= hdr.total_size:
                    self._op_bytes.pop(hdr.op_id, None)
                    buf.counter += 1
                else:
                    self._op_bytes[hdr.op_id] = got
            if (
                buf.counter >= buf.threshold > 0
                or (take == 0 and buf.bytes_received >= buf.buffer.size)
                or (buf.replay_boundary and buf.counter >= buf.threshold)
            ):
                self._complete_active(entry)

    def _complete_active(self, entry: MailboxEntry) -> RetiredBuffer:
        """Threshold reached (or epoch pre-empted): retire and notify."""
        handler_cost = 0.0
        if self.active is not None:
            # Active-mailbox handlers run in the completion unit before
            # the buffer retires, so served-frame rewrites land in the
            # bytes the host recv()s (and the auditor digests).
            handler_cost = self.active.on_epoch_complete(entry)
        spill_penalty = self.pcie.round_trip() if entry.counter_spilled else 0.0
        record = self.lut.retire_active(entry)
        self.stat("nic.rvma.epochs_completed").add()
        if self.op_journal is not None:
            self.op_journal.note_retire(
                entry.mailbox, record.epoch, record.buffer.counter, record.length
            )
        aud = self.auditor
        if aud is not None:
            aud.on_epoch_complete(self, entry, record)
        if entry.counter_spilled:
            self.stat("nic.rvma.spilled_completions").add()
        pb = record.buffer
        self._epoch_hist.add(record.length)
        sp = pb._obs_span
        if sp is not None:
            self.sim.spans.end(sp, bytes=record.length, epoch=record.epoch)
            pb._obs_span = None
        # One cache-line store carries both the head pointer and length;
        # it pipelines behind the data DMA (posted writes), so it costs
        # only the pipeline gap — plus a full host round trip when the
        # threshold counter spilled to host memory.
        self.sim.post(
            self.cfg.completion_pipeline_gap + spill_penalty + handler_cost,
            self._write_completion,
            pb,
            record,
        )
        # Replay cascade: a restored successor pinned at an
        # already-satisfied boundary (e.g. a zero-length flush epoch)
        # retires the moment it becomes active, keeping the rebuilt
        # epoch numbering aligned with the original run.
        nxt = entry.active
        if nxt is not None and nxt.replay_boundary and nxt.counter >= nxt.threshold:
            self._complete_active(entry)
        return record

    def _write_completion(self, pb: PostedBuffer, record: RetiredBuffer) -> None:
        self.memory.write_u64(pb.notification_addr, record.head_addr)
        self.memory.write_u64(pb.length_addr, record.length)

    # --- get servicing -------------------------------------------------------------

    def _on_get(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RvmaGetHeader = msg.header
        entry, buf = self._resolve_target(hdr, msg.src)
        if entry is None or hdr.offset + hdr.length > buf.buffer.size:
            if entry is not None:
                self._nack(msg.src, hdr, NackReason.OUT_OF_BOUNDS)
            self.send_control(msg.src, RvmaGetReply(op_id=hdr.op_id, ok=False))
            return

        def reply() -> None:
            data = buf.buffer.read(hdr.offset, hdr.length)
            self._inject_now(
                msg.src, hdr.length, RvmaGetReply(op_id=hdr.op_id, ok=True), data, None
            )

        self.sim.post(self.pcie.latency, reply)  # DMA read of host memory

    def _on_get_reply(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RvmaGetReply = msg.header
        op = self._gets.get(hdr.op_id)
        if op is None:
            return
        if not hdr.ok:
            self._gets.pop(hdr.op_id)
            op.done.resolve(False)
            return
        if delivery.packet is None:
            frag_off, data, nbytes = 0, msg.data, msg.size
        else:
            frag_off = delivery.packet.offset
            data = delivery.packet.data
            nbytes = delivery.packet.size
        dest: HostBuffer = op._dest  # type: ignore[attr-defined]
        got = self._op_bytes.get(-hdr.op_id, 0) + nbytes

        def place() -> None:
            if data:
                dest.write(frag_off, data)
            if got >= op.length:
                self._op_bytes.pop(-hdr.op_id, None)
                self._gets.pop(hdr.op_id, None)
                op.done.resolve(True)

        self._op_bytes[-hdr.op_id] = got
        self.sim.post(self.pcie.latency, place)

    # --- NACKs -----------------------------------------------------------------------

    def _nack(self, src: int, hdr, reason: NackReason) -> None:
        """Refuse an op.  A put's NACK links its :class:`PutOp`."""
        self.stat(f"nic.rvma.nacks_{reason.value}").add()
        if self.cfg.send_nacks and src != self.node_id:
            self.send_control(
                src,
                RvmaNackHeader(
                    op_id=hdr.op_id, mailbox=hdr.mailbox, reason=reason,
                    op=getattr(hdr, "op", None),
                ),
            )

    def _on_nack(self, delivery: Delivery) -> None:
        hdr: RvmaNackHeader = delivery.message.header
        self.stat("nic.rvma.nacks_received").add()
        op = hdr.op
        if op is None or op.incarnation != self.incarnation:
            return
        op.nacked = hdr.reason
        if op.index <= self._suspected_at.get(op.dst, 0):
            op.retry = None
        if (
            hdr.reason in (NackReason.NO_BUFFER, NackReason.NO_MAILBOX)
            and op.retry
            and op.retry[3] > 0
        ):
            data, offset, mode, left = op.retry
            op.retry = (data, offset, mode, left - 1)
            self.stat("nic.rvma.put_retries").add()
            resend = RvmaPutHeader(
                mailbox=op.mailbox, offset=offset, total_size=op.size, op_id=op.op_id,
                op=op,
            )
            self.inject(
                op.dst, op.size, resend, data, mode, after=self.cfg.put_retry_timeout
            )
            return
        if op.lost:
            return
        op.lost = True
        if (
            hdr.reason in (NackReason.NO_BUFFER, NackReason.NO_MAILBOX)
            and op.retry
        ):
            # Retryable reason, but the retry budget is spent: a give-up,
            # distinct from non-retryable losses (CLOSED/OUT_OF_BOUNDS).
            self.stat("nic.rvma.put_giveups").add()
        if hdr.reason is NackReason.QUOTA:
            # Shed by the receiver's tenant quota — an accounted QoS
            # outcome, not silent loss; oracles subtract this from
            # puts_lost when judging integrity under QoS scenarios.
            self.stat("nic.rvma.puts_lost_quota").add()
        self.stat("nic.rvma.puts_lost").add()
