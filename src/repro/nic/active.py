"""Active mailboxes: NIC-side compute-on-arrival (Active Access idiom).

The RVMA completion unit already observes every placed byte; this module
lets software attach small user-defined handlers to a mailbox so the NIC
executes them *at threshold time* instead of round-tripping through the
host sweep loop.  Three built-in handler kinds ship:

* :class:`AtomicWordHandler` — an atomic increment / compare-and-swap on
  a per-mailbox word maintained by the completion unit;
* :class:`PredicateFilter` — drops (or NACKs ``FILTERED``) puts whose
  payload fails a predicate, before any bytes land;
* :class:`KvServeHandler` — a GET-hot-key short-circuit for the KV
  service: the completion unit scans each completed request chunk and
  serves GETs on server-registered hot keys straight from a read-only
  view, rewriting the served frame's op byte to the ``OP_SERVED``
  tombstone so the host sweep never dispatches it.

Every handler-visible behaviour has a host-dispatch twin it must match
byte-for-byte: the word update is the pure :func:`apply_word_op` both
paths share, the filter is the pure :meth:`PredicateFilter.matches`, and
a handler-served KV reply must be byte-identical (above the
``STATUS_HANDLER_FLAG`` marker) to what the sweep loop would have sent.
The conformance suites under ``tests/`` pin all three.

Consistency protocol for the KV view (why served GETs match FIFO
host dispatch): the scanner counts every write frame it sees on a hot
key into a *pending* counter; the host decrements it (``hw_kv_sync``)
only after executing the write — or after shedding it, so the key does
not wedge.  A GET is served only when its key has no pending writes,
i.e. the view provably equals the store at that stream position.  Under
the QoS sweep the host executes out of stream order, so byte-identity
is only guaranteed for FIFO servers; served replies remain linearizable
and correctly accounted either way (docs/QOS.md).

Crash-restart: bindings are NIC-resident and die with the hardware.
The host-side op journal records each attach and, per completed epoch,
the handler *effects* (word value, served-frame offsets).  Rejoin
re-attaches handlers cold and replayed epochs re-apply the journaled
effects verbatim — same bytes, same word, no duplicate replies — so the
invariant auditor's epoch digests match the original run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..network.routing import RoutingMode
# repro.services.wire is dependency-free (pure structs), so reaching up
# the layer diagram for the KV framing cannot create an import cycle.
from ..services.wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SERVED,
    REQ_HEADER_BYTES,
    STATUS_HANDLER_FLAG,
    STATUS_OK,
    encode_reply,
    peek_request_header,
)
from .headers import NackReason, RvmaPutHeader
from .lut import BufferMode, LutError, MailboxEntry


@dataclass
class ActiveCostConfig:
    """Deterministic cost model for completion-unit handler execution."""

    #: Fixed activation cost per handler invocation at threshold time.
    invoke_ns: float = 10.0
    #: One atomic word op (fetch-add / compare-and-swap) on NIC SRAM.
    word_op_ns: float = 8.0
    #: Predicate evaluation per admitted put (header + prefix compare).
    filter_ns: float = 12.0
    #: Streaming scan of a completed chunk (frame walk, no payload copy).
    scan_ns_per_byte: float = 0.05
    #: Building + injecting one served reply (doorbell, header).
    serve_ns: float = 60.0
    #: DMA read of the hot view per served payload byte.
    serve_ns_per_byte: float = 0.1


# --- handler kinds --------------------------------------------------------------


@dataclass(frozen=True)
class AtomicWordHandler:
    """Atomic op on a NIC-resident per-mailbox word at each epoch close.

    ``op`` is one of ``"add"`` (word += operand), ``"add_bytes"``
    (word += completed-epoch length) or ``"cas"`` (word = update iff
    word == expect).  The word is completion-unit state: reads from the
    host cost a PCIe round trip (:meth:`RvmaNic.hw_active_word`).
    """

    kind = "word"
    op: str = "add"
    operand: int = 1
    expect: int = 0
    update: int = 0
    initial: int = 0

    def __post_init__(self) -> None:
        if self.op not in ("add", "add_bytes", "cas"):
            raise ValueError(f"unknown word op {self.op!r}")


def apply_word_op(word: int, handler: AtomicWordHandler, epoch_len: int) -> tuple[int, bool]:
    """Pure word-update rule shared by the NIC path and the host oracle.

    Returns ``(new_word, applied)`` — ``applied`` is False only for a
    failed compare-and-swap.
    """
    if handler.op == "add":
        return word + handler.operand, True
    if handler.op == "add_bytes":
        return word + epoch_len, True
    if word == handler.expect:
        return handler.update, True
    return word, False


@dataclass(frozen=True)
class PredicateFilter:
    """Payload predicate evaluated before placement: pass, drop or NACK.

    Only whole-message puts are evaluable (a fragment does not carry the
    prefix); fragmented puts bypass the filter and are counted, so the
    packet-fidelity fabric degrades visibly rather than silently.
    """

    kind = "filter"
    prefix: bytes = b""
    #: Drop puts that *match* instead of puts that do not.
    invert: bool = False
    #: NACK ``FILTERED`` (initiator sees the loss) vs silent drop.
    nack: bool = True

    def matches(self, data: bytes) -> bool:
        """Pure predicate shared by the NIC path and the host oracle."""
        return data.startswith(self.prefix) ^ self.invert


@dataclass(frozen=True)
class KvServeHandler:
    """GET-hot-key short-circuit over a shard's managed request stream.

    The server registers the hot-key set at attach time and keeps the
    read-only view current with ``hw_kv_sync`` after executing (or
    shedding) each write on a hot key.  Reply routing reuses the KV
    convention: ``client_id = (node << 8) | index`` and the reply
    mailbox is ``reply_mailbox_base + client_id``.
    """

    kind = "kv"
    hot_keys: tuple[bytes, ...] = ()
    reply_mailbox_base: int = 0


@dataclass
class ActiveEffect:
    """Journaled handler effects of one completed epoch (rewind unit)."""

    word: Optional[int] = None
    served: tuple[int, ...] = ()


class _KvScanState:
    """Volatile scanner state for one mailbox's request stream."""

    __slots__ = ("view", "pending", "skip", "carry")

    def __init__(self) -> None:
        #: key -> value: server-synced read-only view of hot keys.
        self.view: dict[bytes, bytes] = {}
        #: key -> count of scanned-but-not-yet-synced writes.
        self.pending: dict[bytes, int] = {}
        #: body bytes of an already-classified frame straddling chunks.
        self.skip: int = 0
        #: partial header+key of a not-yet-classified straddling frame.
        self.carry: bytearray = bytearray()


@dataclass
class ActiveBinding:
    """All handlers attached to one mailbox plus their NIC-resident state."""

    mailbox: int
    word_handler: Optional[AtomicWordHandler] = None
    filter: Optional[PredicateFilter] = None
    kv: Optional[KvServeHandler] = None
    word: int = 0
    kv_state: _KvScanState = field(default_factory=_KvScanState)

    @property
    def handlers(self) -> list:
        return [h for h in (self.word_handler, self.filter, self.kv) if h is not None]


class ActiveRegistry:
    """Per-NIC table of mailbox -> :class:`ActiveBinding`.

    Owned by :class:`repro.nic.rvma.RvmaNic` (duck-typed ``nic.active``
    attribute, the placement-quota idiom): the NIC consults
    :meth:`filter_put` on the admit path and :meth:`on_epoch_complete`
    at threshold time; both are no-ops for unbound mailboxes.
    """

    def __init__(self, nic, costs: Optional[ActiveCostConfig] = None) -> None:
        self.nic = nic
        self.costs = costs or ActiveCostConfig()
        self.bindings: dict[int, ActiveBinding] = {}

    # ------------------------------------------------------------------ lifecycle

    def attach(self, mailbox: int, handler) -> ActiveBinding:
        """Bind *handler* to *mailbox* (one handler per kind per mailbox)."""
        entry = self.nic.lut.lookup(mailbox)
        if entry is None:
            raise LutError(f"mailbox {mailbox:#x} not initialised")
        binding = self.bindings.get(entry.mailbox)
        if binding is None:
            binding = self.bindings[entry.mailbox] = ActiveBinding(mailbox=entry.mailbox)
        if isinstance(handler, AtomicWordHandler):
            if binding.word_handler is not None:
                raise LutError(f"mailbox {mailbox:#x} already has a word handler")
            binding.word_handler = handler
            binding.word = handler.initial
        elif isinstance(handler, PredicateFilter):
            if binding.filter is not None:
                raise LutError(f"mailbox {mailbox:#x} already has a filter")
            binding.filter = handler
        elif isinstance(handler, KvServeHandler):
            if binding.kv is not None:
                raise LutError(f"mailbox {mailbox:#x} already has a KV handler")
            if entry.mode is not BufferMode.MANAGED:
                raise LutError("KvServeHandler requires a receiver-managed stream")
            binding.kv = handler
            binding.kv_state = _KvScanState()
        else:
            raise LutError(f"unknown handler type {type(handler).__name__}")
        self.nic.stat("nic.rvma.active.attached").add()
        return binding

    def restore(self, mailbox: int, handler, window_log) -> None:
        """Journal-driven cold re-attach after crash-restart.

        The word is rebuilt from the newest journaled effect (replayed
        epochs re-assert their own values on re-completion, so any
        starting point at or before the replay window is consistent).
        KV view/pending state is *not* journaled — it is host-owned soft
        state the server re-seeds via ``hw_kv_sync``; until then GETs
        fall through to the host, which is always safe.
        """
        binding = self.attach(mailbox, handler)
        if isinstance(handler, AtomicWordHandler):
            effects = getattr(window_log, "active_effects", {})
            for epoch in sorted(effects):
                if effects[epoch].word is not None:
                    binding.word = effects[epoch].word

    def crash_reset(self) -> None:
        """Crash-stop: bindings and all handler state die with the NIC."""
        self.bindings.clear()

    def word_value(self, mailbox: int) -> Optional[int]:
        binding = self.bindings.get(mailbox)
        return binding.word if binding is not None and binding.word_handler else None

    # ------------------------------------------------------------------ admit path

    def filter_put(self, hdr: RvmaPutHeader, src: int, frag_off: int, nbytes: int, data: bytes):
        """Admit-path predicate check.

        Returns ``None`` when the put was dropped (stats and NACK
        already emitted) or the filter cost in ns to charge the
        placement (0.0 for unbound/unfiltered mailboxes).
        """
        binding = self.bindings.get(hdr.mailbox)
        if binding is None or binding.filter is None:
            return 0.0
        flt = binding.filter
        if frag_off != 0 or nbytes != hdr.total_size:
            # Fragment: predicate not evaluable on a partial payload.
            self.nic.stat("nic.rvma.active.filter_bypass").add()
            return 0.0
        if flt.matches(bytes(data)):
            self.nic.stat("nic.rvma.active.filter_passed").add()
            return self.costs.filter_ns
        self.nic.stat("nic.rvma.active.filtered_puts").add()
        spans = self.nic.sim.spans
        if spans.active and spans.wants("active"):
            spans.end(
                spans.begin("active", "filter_drop", nic=self.nic.name, mailbox=hdr.mailbox),
                bytes=nbytes,
            )
        if flt.nack:
            self.nic._nack(src, hdr, NackReason.FILTERED)
        return None

    # ------------------------------------------------------------------ completion path

    def on_epoch_complete(self, entry: MailboxEntry) -> float:
        """Run the mailbox's handlers against the about-to-retire buffer.

        Called by the NIC *before* ``lut.retire_active`` so served-frame
        rewrites land in the bytes the auditor digests and the host
        recv()s.  Returns the extra completion-pipeline delay.
        """
        binding = self.bindings.get(entry.mailbox)
        if binding is None or (binding.word_handler is None and binding.kv is None):
            return 0.0
        nic = self.nic
        buf = entry.active
        epoch = entry.epoch
        chunk_len = buf.bytes_received
        nic.stat("nic.rvma.active.invocations").add()
        cost = self.costs.invoke_ns

        journal = nic.op_journal
        replay = journal.active_effect(entry.mailbox, epoch) if journal is not None else None
        if replay is not None:
            # Rejoin replay: re-assert the journaled effects verbatim.
            # No re-serve, no duplicate replies — the original injections
            # live in the send journal and retransmit on their own.
            if replay.word is not None:
                binding.word = replay.word
            for off in replay.served:
                buf.buffer.write(off, bytes((OP_SERVED,)))
            if binding.kv is not None and chunk_len > 0:
                # Parse-only walk: keep the straddle state (skip/carry)
                # stream-aligned so the first post-replay chunk parses
                # correctly.  Pending counts are NOT rebuilt — writes in
                # replayed chunks were host-consumed pre-crash and their
                # syncs will never come; kv_sync floors at zero instead.
                self._scan_and_serve(binding, buf, chunk_len, [], cost, serve=False)
            nic.stat("nic.rvma.active.replayed").add()
            return cost

        spans = nic.sim.spans
        sp = None
        if spans.active and spans.wants("active"):
            sp = spans.begin("active", "epoch_handlers", nic=nic.name, mailbox=entry.mailbox)

        effect = ActiveEffect()
        if binding.word_handler is not None:
            binding.word, applied = apply_word_op(binding.word, binding.word_handler, chunk_len)
            nic.stat("nic.rvma.active.word_ops").add()
            if not applied:
                nic.stat("nic.rvma.active.cas_failures").add()
            cost += self.costs.word_op_ns
            effect.word = binding.word
        served: list[int] = []
        if binding.kv is not None and chunk_len > 0:
            cost += self._scan_and_serve(binding, buf, chunk_len, served, cost)
            effect.served = tuple(served)
        if journal is not None:
            journal.note_active_effect(entry.mailbox, epoch, effect)
        if sp is not None:
            spans.end(sp, epoch=epoch, served=len(served), word=binding.word)
        return cost

    def _scan_and_serve(
        self,
        binding: ActiveBinding,
        buf,
        chunk_len: int,
        served: list[int],
        base_cost: float,
        serve: bool = True,
    ) -> float:
        """Walk one completed chunk; serve eligible GETs; return scan cost.

        Frame walk is resumable across chunk boundaries: ``skip`` carries
        the body remainder of an already-classified straddling frame,
        ``carry`` the partial header+key of one not yet classifiable.
        Straddling frames are classified (for write pending-counting) as
        soon as header+key become visible — at the start of the next
        chunk's scan, i.e. still in stream order — but are never served.
        """
        nic = self.nic
        handler = binding.kv
        st = binding.kv_state
        hot = handler.hot_keys
        chunk = bytes(buf.buffer.read(0, chunk_len))
        cost = self.costs.scan_ns_per_byte * chunk_len
        pos, n = 0, chunk_len
        while pos < n:
            if st.skip:
                take = min(st.skip, n - pos)
                st.skip -= take
                pos += take
                continue
            if st.carry:
                need = REQ_HEADER_BYTES
                if len(st.carry) >= REQ_HEADER_BYTES:
                    need = REQ_HEADER_BYTES + peek_request_header(st.carry)[4]
                take = min(need - len(st.carry), n - pos)
                st.carry += chunk[pos : pos + take]
                pos += take
                if len(st.carry) < REQ_HEADER_BYTES:
                    continue
                op, _tenant, _client, _req, key_len, val_len = peek_request_header(st.carry)
                need = REQ_HEADER_BYTES + key_len
                if len(st.carry) < need:
                    continue
                key = bytes(st.carry[REQ_HEADER_BYTES:need])
                st.skip = (need + val_len) - len(st.carry)
                st.carry = bytearray()
                if serve:
                    self._classify(st, hot, op, key)
                continue
            if n - pos < REQ_HEADER_BYTES:
                st.carry = bytearray(chunk[pos:n])
                break
            op, _tenant, client_id, req_id, key_len, val_len = peek_request_header(chunk, pos)
            total = REQ_HEADER_BYTES + key_len + val_len
            key_end = pos + REQ_HEADER_BYTES + key_len
            if pos + total > n:
                if key_end <= n:
                    # Header+key visible: classify now, skip the body
                    # remainder when the next chunk completes.
                    if serve:
                        self._classify(st, hot, op, bytes(chunk[pos + REQ_HEADER_BYTES : key_end]))
                    st.skip = total - (n - pos)
                    pos = n
                else:
                    st.carry = bytearray(chunk[pos:n])
                break
            key = bytes(chunk[pos + REQ_HEADER_BYTES : key_end])
            if not serve:
                pass
            elif op == OP_GET and key in hot:
                if not st.pending.get(key) and key in st.view:
                    value = st.view[key]
                    reply = encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, req_id, value)
                    serve_cost = self.costs.serve_ns + self.costs.serve_ns_per_byte * len(reply)
                    cost += serve_cost
                    buf.buffer.write(pos, bytes((OP_SERVED,)))
                    served.append(pos)
                    nic.stat("nic.rvma.active.served").add()
                    nic.stat("nic.rvma.active.served_bytes").add(len(reply))
                    # client_id = (node << 8) | index — the KV service's
                    # registry-free reply-routing convention.
                    nic.inject(
                        client_id >> 8,
                        len(reply),
                        RvmaPutHeader(
                            mailbox=handler.reply_mailbox_base + client_id,
                            offset=0,
                            total_size=len(reply),
                        ),
                        reply,
                        RoutingMode.STATIC,
                        after=base_cost + cost,
                    )
                elif st.pending.get(key):
                    nic.stat("nic.rvma.active.passed_dirty").add()
                else:
                    nic.stat("nic.rvma.active.passed_cold").add()
            else:
                self._classify(st, hot, op, key)
            pos += total
        return cost

    @staticmethod
    def _classify(st: _KvScanState, hot: tuple[bytes, ...], op: int, key: bytes) -> None:
        """Pending-count a write frame on a hot key (GETs fall through)."""
        if op in (OP_PUT, OP_DELETE) and key in hot:
            st.pending[key] = st.pending.get(key, 0) + 1

    # ------------------------------------------------------------------ host sync

    def kv_sync(
        self,
        mailbox: int,
        key: bytes,
        value: Optional[bytes] = None,
        delete: bool = False,
        executed: bool = True,
    ) -> bool:
        """Host -> NIC view sync after executing (or shedding) a write.

        Decrements the key's pending-write counter (floored at zero:
        writes executed from chunks consumed before a crash have no
        live counter) and, when the write actually *executed*, folds it
        into the view.  ``executed=False`` is the shed path — decrement
        only, so an RC_OVERLOAD-refused write cannot wedge its key.
        """
        binding = self.bindings.get(mailbox)
        if binding is None or binding.kv is None:
            return False
        st = binding.kv_state
        if st.pending.get(key):
            st.pending[key] -= 1
            if not st.pending[key]:
                del st.pending[key]
        if executed:
            if delete:
                st.view.pop(key, None)
            elif value is not None:
                st.view[key] = bytes(value)
        self.nic.stat("nic.rvma.active.kv_syncs").add()
        return True
