"""The RVMA application programming interface (paper §III-C).

Method-per-call mapping to the paper:

=====================  =================================
Paper                   This module
=====================  =================================
``RVMA_Init_window``    :meth:`RvmaApi.init_window`
``RVMA_Post_buffer``    :meth:`RvmaApi.post_buffer`
``RVMA_Close_Win``      :meth:`RvmaApi.close_win`
``RVMA_Win_inc_epoch``  :meth:`RvmaApi.win_inc_epoch`
``RVMA_Win_get_epoch``  :meth:`RvmaApi.win_get_epoch`
``RVMA_Win_get_buf_ptrs`` :meth:`RvmaApi.win_get_buf_ptrs`
``RVMA_Put``            :meth:`RvmaApi.put`
(comprehensive spec)    :meth:`RvmaApi.get`, catch-all, rewind
=====================  =================================

All time-consuming calls are generator functions to be driven inside a
:class:`repro.sim.process.SimProcess`::

    def app(api, peer):
        win = yield from api.init_window(0xBEEF, epoch_threshold=1024)
        yield from api.post_buffer(win, size=1024)
        ...
"""

from __future__ import annotations

from typing import Generator, Optional

from ..memory.buffer import HostBuffer
from ..memory.mwait import MWAIT, WakeupModel
from ..nic.lut import BufferMode, EpochType, LutError
from ..nic.rvma import RvmaNic
from ..network.routing import RoutingMode
from .addressing import RvmaAddress, resolve_destination
from .status import RvmaApiError, RvmaStatus
from .window import CompletionInfo, PostedRecord, Window, alloc_notification_slot


class RvmaApi:
    """Per-node RVMA software endpoint.

    Parameters
    ----------
    node:
        A :class:`repro.cluster.node.Node` whose NIC is an RVMA NIC.
    sw_overhead:
        Host software time (ns) charged per API call, letting the
        calibrated microbenchmarks model verbs/UCX-class library costs.
    pid:
        Process id of this endpoint on its node (paper §III-C NID/PID
        addressing).  Non-zero PIDs carve a private slice of the node's
        mailbox space, so co-located processes may reuse mailbox
        numbers; initiators target them via :class:`RvmaAddress`.
    """

    def __init__(self, node, sw_overhead: float = 0.0, pid: int = 0) -> None:
        if not isinstance(node.nic, RvmaNic):
            raise TypeError("RvmaApi requires a node with an RVMA NIC")
        self.node = node
        self.nic: RvmaNic = node.nic
        self.sim = node.sim
        self.sw_overhead = sw_overhead
        self.pid = pid
        self.address = RvmaAddress(node.node_id, pid)
        self._next_key = 0x5EED

    def _own_mailbox(self, virtual_addr: int) -> int:
        # PID 0 keeps the full 64-bit mailbox space (backwards
        # compatible); non-zero PIDs live in their qualified slice.
        return self.address.qualify(virtual_addr) if self.pid else virtual_addr

    def _overhead(self):
        if self.sw_overhead > 0:
            yield self.sw_overhead

    # ------------------------------------------------------------------ windows

    def init_window(
        self,
        virtual_addr: int,
        epoch_threshold: int,
        epoch_type: EpochType = EpochType.EPOCH_BYTES,
        mode: BufferMode = BufferMode.STEERED,
    ) -> Generator:
        """Create a window on *virtual_addr* (a mailbox, not a pointer)."""
        if epoch_threshold <= 0:
            raise RvmaApiError(RvmaStatus.ERR_INVALID, "epoch_threshold must be > 0")
        yield from self._overhead()
        virtual_addr = self._own_mailbox(virtual_addr)
        res = yield self.nic.hw_init_window(virtual_addr, epoch_type, mode)
        if isinstance(res, LutError):
            raise RvmaApiError(RvmaStatus.ERR_NO_RESOURCES, str(res))
        self._next_key += 1
        return Window(
            node=self.node,
            virtual_addr=virtual_addr,
            key=self._next_key,
            epoch_threshold=epoch_threshold,
            epoch_type=epoch_type,
            mode=mode,
        )

    def post_buffer(
        self,
        win: Window,
        size: Optional[int] = None,
        buffer: Optional[HostBuffer] = None,
        threshold: Optional[int] = None,
    ) -> Generator:
        """Attach a buffer to the window's bucket.

        Pass either *size* (a fresh buffer is allocated) or an existing
        *buffer*.  Returns the :class:`PostedRecord`, whose
        ``notification_addr`` is the paper's ``notification_ptr``.

        A buffer keeps the notification line of its first posting.  A
        re-post after every earlier posting of the buffer was consumed
        by :meth:`wait_completion` reuses that line with both words
        zeroed; a re-post while one is still unconsumed gets a fresh
        line.
        """
        if (size is None) == (buffer is None):
            raise RvmaApiError(RvmaStatus.ERR_INVALID, "pass exactly one of size/buffer")
        if buffer is None:
            buffer = HostBuffer.allocate(self.node.memory, int(size), label="rvma-buf")
        thr = threshold if threshold is not None else win.epoch_threshold
        if win.epoch_type is EpochType.EPOCH_BYTES and thr > buffer.size:
            raise RvmaApiError(
                RvmaStatus.ERR_INVALID,
                f"byte threshold {thr} exceeds buffer size {buffer.size}",
            )
        yield from self._overhead()
        notify = self._notification_line(buffer)
        length_addr = notify + 8
        buffer.unconsumed += 1
        res = yield self.nic.hw_post_buffer(
            win.virtual_addr, buffer, thr, notify, length_addr
        )
        if isinstance(res, LutError):
            buffer.unconsumed -= 1
            raise RvmaApiError(RvmaStatus.ERR_NO_WINDOW, str(res))
        record = PostedRecord(
            buffer=buffer, posted=res, notification_addr=notify, length_addr=length_addr
        )
        win.posted.append(record)
        return record

    def _notification_line(self, buffer: HostBuffer) -> int:
        """Zeroed notification line for a new posting of *buffer*.

        Once a posting is consumed the NIC never writes its line again,
        so the buffer's line is free whenever none of its postings is
        unconsumed.  Not so on a NIC that journals posts for crash
        recovery: a restore re-completes every epoch since the last
        checkpoint, consumed or not, so each posting keeps its own line.
        """
        line = buffer.line
        if line is None or buffer.unconsumed or self.nic.op_journal is not None:
            line = alloc_notification_slot(self.node.memory)[0]
            if buffer.line is None:
                buffer.line = line
        else:
            self.node.memory.write(line, bytes(16))
        return line

    def close_win(self, win: Window) -> Generator:
        """Close the window; further remote ops are discarded (and may NACK)."""
        yield from self._overhead()
        found = yield self.nic.hw_close(win.virtual_addr)
        win.closed = True
        return RvmaStatus.SUCCESS if found else RvmaStatus.ERR_NO_WINDOW

    def win_inc_epoch(self, win: Window) -> Generator:
        """Hand the active buffer to software before its threshold is met."""
        yield from self._overhead()
        record = yield self.nic.hw_inc_epoch(win.virtual_addr)
        return RvmaStatus.SUCCESS if record is not None else RvmaStatus.ERR_NO_BUFFER

    def win_get_epoch(self, win: Window) -> Generator:
        """Current epoch (count of completed buffers) of the window."""
        yield from self._overhead()
        epoch = yield self.nic.hw_get_epoch(win.virtual_addr)
        return int(epoch)

    def win_get_buf_ptrs(self, win: Window, count: int) -> list[int]:
        """Harvest up to *count* completed-buffer head pointers.

        Pure host-memory reads (no simulated delay): exactly the cheap
        polling loop the paper intends.  Returns valid pointers only,
        oldest first, of completed buffers :meth:`wait_completion` has
        not consumed yet: a consumed buffer may already be re-posted
        and refilling.
        """
        out: list[int] = []
        for record in win.posted:
            if len(out) >= count:
                break
            value = self.node.memory.read_u64(record.notification_addr)
            if value != 0:
                out.append(value)
        return out

    # ------------------------------------------------------------------ transfers

    def put(
        self,
        dst: int,
        virtual_addr: int,
        data: bytes = b"",
        size: Optional[int] = None,
        offset: int = 0,
        mode: Optional[RoutingMode] = None,
    ) -> Generator:
        """Initiate a put; returns the :class:`PutOp` handle.

        Note there is no rkey and no raw remote address: the initiator
        needs only the target node and mailbox — RVMA's headline
        usability win over RDMA's Figure-1 handshake.
        """
        nbytes = size if size is not None else len(data)
        if nbytes < 0 or offset < 0:
            raise RvmaApiError(RvmaStatus.ERR_INVALID, "negative size/offset")
        spans = self.nic.sim.spans
        sp = None
        if spans.active and spans.wants("api"):
            sp = spans.begin(
                "api", "put", node=self.node.node_id, dst=dst, size=nbytes
            )
        yield from self._overhead()
        dst_node, mailbox = resolve_destination(dst, virtual_addr)
        op = self.nic.hw_put(dst_node, mailbox, nbytes, data, offset, mode)
        if sp is not None:
            op.local_done.add_callback(lambda _op: spans.end(sp))
        return op

    def get(
        self,
        dst: int,
        virtual_addr: int,
        length: int,
        dest_buffer: Optional[HostBuffer] = None,
        offset: int = 0,
        mode: Optional[RoutingMode] = None,
    ) -> Generator:
        """Initiate a get from the target's active buffer; returns GetOp."""
        if dest_buffer is None:
            dest_buffer = HostBuffer.allocate(self.node.memory, length, label="rvma-get")
        yield from self._overhead()
        dst_node, mailbox = resolve_destination(dst, virtual_addr)
        return self.nic.hw_get(dst_node, mailbox, length, dest_buffer, offset, mode)

    # ------------------------------------------------------------------ completion

    def wait_completion(self, win: Window, wakeup: WakeupModel = MWAIT) -> Generator:
        """Block until the next posted buffer completes its epoch.

        Waits on that buffer's own notification cache line (MWait by
        default), then reads the (head, length) pair the NIC stored.
        """
        record = win.next_unconsumed()
        spans = self.nic.sim.spans
        sp = None
        if spans.active and spans.wants("api"):
            sp = spans.begin(
                "api",
                "wait_completion",
                node=self.node.node_id,
                mailbox=win.virtual_addr,
            )
        head = yield self.node.waiter.wait_for_nonzero_u64(record.notification_addr, wakeup)
        yield from self._overhead()  # library wrapper around the check
        length = self.node.memory.read_u64(record.length_addr)
        del win.posted[0]
        win.consumed += 1
        record.buffer.unconsumed -= 1
        if sp is not None:
            spans.end(sp, length=int(length))
        return CompletionInfo(head_addr=int(head), length=int(length), record=record)

    # ------------------------------------------------------------------ failures

    def _require_detector(self):
        detector = self.nic.detector
        if detector is None:
            raise RvmaApiError(
                RvmaStatus.ERR_INVALID,
                "failure detection requires reliability: build the cluster with "
                "nic_config=RvmaNicConfig(reliability=ReliabilityConfig(...))",
            )
        return detector

    def watch_peer(self, peer: int, deadline: Optional[float] = None):
        """Start failure-detector monitoring of *peer* (heartbeat pings).

        Returns the :class:`repro.reliability.detector.Watch` handle;
        cancel it (or pass *deadline*) so a run whose peers stay healthy
        still drains its event heap and terminates.
        """
        return self._require_detector().watch(peer, deadline=deadline)

    def peer_failure(self, peer: int):
        """Future resolved with :class:`~repro.reliability.detector.PeerFailed`
        when *peer* is suspected dead (starts a watch)."""
        return self._require_detector().failure_future(peer)

    def wait_peer_failure(self, peer: int) -> Generator:
        """Block until the failure detector suspects *peer*.

        The application-facing alternative to hanging in
        ``wait_completion`` on traffic a dead peer will never finish.
        """
        record = yield self.peer_failure(peer)
        return record

    def peer_suspected(self, peer: int) -> bool:
        """Whether the failure detector currently suspects *peer*."""
        detector = self.nic.detector
        return detector is not None and detector.is_suspected(peer)

    # ------------------------------------------------------------------ observability

    def metrics(self, prefix: str = ""):
        """Hierarchical metrics for this node's simulation.

        Returns a :class:`repro.observability.MetricsRegistry` snapshot:
        every counter/summary/histogram under the catalog name it was
        registered with (``nic.rvma.bytes_placed``,
        ``transport.retransmits``, …), summed over the components that
        registered it.  Filter with *prefix*
        (e.g. ``api.metrics("transport").flat()``) — the registry itself
        always holds everything; *prefix* applies to :meth:`flat`-style
        reads, so it is accepted here for convenience and forwarded.
        """
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry.collect(self.nic.sim)
        if prefix:
            return registry.flat(prefix)
        return registry

    def trace_spans(self, category: str = ""):
        """Recorded observability spans (optionally one *category*).

        Spans are collected only after ``sim.spans.enable(...)``; see
        ``docs/OBSERVABILITY.md`` for the category catalog.
        """
        return self.nic.sim.spans.spans(category)

    # ------------------------------------------------------------------ extensions

    def set_catch_all(self, win: Window) -> Generator:
        """Make *win*'s bucket the catch-all for unmatched mailboxes."""
        yield from self._overhead()
        ok = yield self.nic.hw_set_catch_all(win.virtual_addr)
        return RvmaStatus.SUCCESS if ok else RvmaStatus.ERR_NO_WINDOW

    def rewind(self, win: Window, epochs_back: int = 1) -> Generator:
        """Fetch the buffer of a previous epoch (fault tolerance, §IV-F).

        Returns the :class:`~repro.nic.lut.RetiredBuffer` or None.
        """
        yield from self._overhead()
        record = yield self.nic.hw_rewind(win.virtual_addr, epochs_back)
        return record

    def attach_handler(self, win: Window, handler) -> Generator:
        """Bind an active-mailbox handler (:mod:`repro.nic.active`) to
        *win*: the NIC completion unit then executes it whenever a
        buffer crosses its threshold.  Returns the
        :class:`~repro.nic.active.ActiveBinding`.
        """
        yield from self._overhead()
        res = yield self.nic.hw_attach_handler(win.virtual_addr, handler)
        if isinstance(res, LutError):
            raise RvmaApiError(RvmaStatus.ERR_INVALID, str(res))
        return res

    def active_word(self, win: Window) -> Generator:
        """Read the window's NIC-resident handler word (PCIe round trip);
        None when no :class:`~repro.nic.active.AtomicWordHandler` is bound."""
        yield from self._overhead()
        value = yield self.nic.hw_active_word(win.virtual_addr)
        return value

    def kv_sync(
        self,
        win: Window,
        key: bytes,
        value: Optional[bytes] = None,
        delete: bool = False,
        executed: bool = True,
    ) -> Generator:
        """Sync the window's hot-key view after executing (or shedding,
        ``executed=False``) a write on *key*; True when a KV handler is
        bound (see :meth:`repro.nic.rvma.RvmaNic.hw_kv_sync`)."""
        yield from self._overhead()
        ok = yield self.nic.hw_kv_sync(win.virtual_addr, key, value, delete, executed)
        return bool(ok)
