"""The RDMA baseline NIC (the hardware RVMA is compared against).

Implements the RDMA semantics the paper describes in §II / Fig 1:

* memory regions must be registered and their raw ``(addr, len, rkey)``
  shipped to initiators out of band (see :mod:`repro.rdma.handshake`);
* writes target raw remote addresses; the *target* gets no completion
  signal (except write-with-immediate, whose notification-carrying
  payloads are small);
* the initiator learns of completion via transport acks surfacing as
  CQ entries on a *shared* completion queue;
* two-sided send/recv consumes pre-posted receive buffers and does
  generate target-side CQ entries — which is why spec-compliant RDMA on
  adaptive networks appends a send/recv to signal completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..memory.buffer import HostBuffer, MemoryRegion
from ..memory.memory import NodeMemory
from ..network.fabric import BaseFabric
from ..network.message import Delivery
from ..network.routing import RoutingMode
from ..sim.engine import Simulator
from ..sim.process import Future
from .base import COMPLETION_PIPELINE_GAP_NS, BaseNic, NicConfig
from .cq import CompletionQueue, CqEntry, CqKind
from .headers import (
    AckHeader,
    RdmaReadHeader,
    RdmaReadReply,
    RdmaSendHeader,
    RdmaWriteHeader,
)

#: Write-with-immediate payload ceiling: the paper notes completion-
#: carrying RDMA commands support only small payloads (< 64 B).
MAX_IMM_PAYLOAD = 64

#: Entries the completion queue holds.
CQ_CAPACITY = 4096


@dataclass
class RdmaNicConfig(NicConfig):
    max_memory_regions: int = 4096
    #: Receiver-not-ready retry behaviour (IB RNR NAK semantics).
    rnr_timeout: float = 2000.0
    rnr_retries: int = 64


@dataclass(slots=True)
class RdmaOp:
    """Initiator-side handle; ``done`` resolves with the CqEntry."""

    op_id: int
    kind: CqKind
    dst: int
    size: int
    done: Future
    wr_id: int = 0
    #: RNR-retry state for sends: (data, tag, mode, retries_left).
    retry: Optional[tuple] = None
    #: Unsignaled ops resolve ``done`` but post no initiator CQ entry
    #: (standard verbs practice for control traffic).
    signaled: bool = True


class RdmaError(RuntimeError):
    """Raised for a failed or invalid RDMA verb."""


class RdmaNic(BaseNic):
    """RDMA-capable NIC bound to one node."""

    metric_group = "nic.rdma"

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        memory: NodeMemory,
        fabric: BaseFabric,
        config: Optional[RdmaNicConfig] = None,
        name: str = "",
    ) -> None:
        config = config or RdmaNicConfig()
        super().__init__(sim, node_id, memory, fabric, config, name or f"rdma{node_id}")
        self.cfg: RdmaNicConfig = config
        self.cq = CompletionQueue(sim, CQ_CAPACITY)
        self.mr_table: dict[int, MemoryRegion] = {}
        self._next_rkey = 0x1000
        # Posted receives: (buffer, wr_id, tag).  ``tag=None`` matches any
        # send; tagged entries model per-connection (QP) receive queues.
        self.recv_queue: list[tuple[HostBuffer, int, Optional[int]]] = []
        #: op_id -> (buffer, wr_id) for sends mid-placement (multi-packet).
        self._recv_claims: dict[int, tuple[HostBuffer, int]] = {}
        self._pending: dict[int, RdmaOp] = {}
        self._op_bytes: dict[int, int] = {}
        self._read_dest: dict[int, HostBuffer] = {}
        self.register_handler(RdmaWriteHeader, self._on_write)
        self.register_handler(RdmaSendHeader, self._on_send)
        self.register_handler(RdmaReadHeader, self._on_read)
        self.register_handler(RdmaReadReply, self._on_read_reply)
        self.register_handler(AckHeader, self._on_ack)

    # ------------------------------------------------------------------ host API

    def hw_reg_mr(self, buffer: HostBuffer) -> Future:
        """Register a memory region; resolves with the MemoryRegion."""
        fut = self.future()

        def do() -> None:
            if len(self.mr_table) >= self.cfg.max_memory_regions:
                fut.resolve(RdmaError("MR table full"))
                return
            self._next_rkey += 1
            mr = MemoryRegion(
                addr=buffer.addr,
                length=buffer.size,
                rkey=self._next_rkey,
                node_id=self.node_id,
            )
            self.mr_table[mr.rkey] = mr
            self.stat("nic.rdma.mrs_registered").add()
            fut.resolve(mr)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_dereg_mr(self, rkey: int) -> Future:
        fut = self.future()

        def do() -> None:
            fut.resolve(self.mr_table.pop(rkey, None) is not None)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_post_recv(
        self, buffer: HostBuffer, wr_id: int = 0, tag: Optional[int] = None
    ) -> Future:
        """Post a receive for two-sided traffic; resolves when armed."""
        fut = self.future()

        def do() -> None:
            self.recv_queue.append((buffer, wr_id, tag))
            fut.resolve(True)

        self.sim.post(self.cfg.issue_latency(), do)
        return fut

    def hw_write(
        self,
        dst: int,
        raddr: int,
        rkey: int,
        size: int,
        data: bytes = b"",
        imm: Optional[int] = None,
        mode: Optional[RoutingMode] = None,
        wr_id: int = 0,
        signaled: bool = True,
    ) -> RdmaOp:
        """RDMA write/put to a raw remote address.

        ``done`` resolves with the initiator CQ entry once the transport
        ack returns (RC semantics) — the paper's "fence" an initiator
        must wait on before a trailing completion send is safe.
        """
        if imm is not None and size > MAX_IMM_PAYLOAD:
            raise RdmaError(
                f"write-with-immediate payloads are limited to {MAX_IMM_PAYLOAD}B "
                f"(paper §I); got {size}"
            )
        hdr = RdmaWriteHeader(raddr=raddr, rkey=rkey, total_size=size, imm=imm)
        op = RdmaOp(
            hdr.op_id, CqKind.WRITE_DONE, dst, size, self.future(), wr_id, signaled=signaled
        )
        self._pending[hdr.op_id] = op
        self.inject(dst, size, hdr, data, mode, after=self.cfg.issue_latency())
        return op

    def hw_send(
        self,
        dst: int,
        size: int,
        data: bytes = b"",
        tag: int = 0,
        mode: Optional[RoutingMode] = None,
        wr_id: int = 0,
        signaled: bool = True,
    ) -> RdmaOp:
        """Two-sided send; consumes a posted recv at the target."""
        hdr = RdmaSendHeader(total_size=size, tag=tag)
        op = RdmaOp(
            hdr.op_id,
            CqKind.SEND_DONE,
            dst,
            size,
            self.future(),
            wr_id,
            retry=(data, tag, mode, self.cfg.rnr_retries),
            signaled=signaled,
        )
        self._pending[hdr.op_id] = op
        self.inject(dst, size, hdr, data, mode, after=self.cfg.issue_latency())
        return op

    def hw_read(
        self,
        dst: int,
        raddr: int,
        rkey: int,
        length: int,
        dest_buffer: HostBuffer,
        mode: Optional[RoutingMode] = None,
        wr_id: int = 0,
    ) -> RdmaOp:
        """RDMA read/get from a raw remote address into a local buffer."""
        if length > dest_buffer.size:
            raise RdmaError("destination buffer too small for read")
        hdr = RdmaReadHeader(raddr=raddr, rkey=rkey, length=length)
        op = RdmaOp(hdr.op_id, CqKind.READ_DONE, dst, length, self.future(), wr_id)
        self._pending[hdr.op_id] = op
        self._read_dest[hdr.op_id] = dest_buffer
        self.sim.post(self.cfg.issue_latency(), self.send_control, dst, hdr, mode)
        return op

    # ------------------------------------------------------------------ failures

    def on_peer_suspected(self, record) -> None:
        """Flush pending ops to a dead peer as ERROR CQ entries.

        Matches RC QP error semantics: outstanding work requests on a
        broken connection complete in error rather than hanging the CQ.
        """
        super().on_peer_suspected(record)
        peer = record.peer
        for op_id in [i for i, op in self._pending.items() if op.dst == peer]:
            op = self._pending.pop(op_id)
            self._op_bytes.pop(op_id, None)
            self._read_dest.pop(op_id, None)
            self.stat("nic.rdma.ops_failed_peer_death").add()
            entry = CqEntry(
                CqKind.ERROR, op.op_id, size=op.size, wr_id=op.wr_id,
                time=self.sim.now, ok=False,
            )
            if op.signaled:
                self.cq.push(entry)
            op.done.resolve(entry)

    # ------------------------------------------------------------------ receive path

    def _mr_for(self, rkey: int, addr: int, length: int) -> Optional[MemoryRegion]:
        mr = self.mr_table.get(rkey)
        if mr is None or not mr.contains(addr, length):
            return None
        return mr

    def _on_write(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RdmaWriteHeader = msg.header
        if delivery.packet is None:
            frag_off, nbytes, data = 0, msg.size, msg.data
        else:
            frag_off = delivery.packet.offset
            nbytes = delivery.packet.size
            data = delivery.packet.data
        mr = self._mr_for(hdr.rkey, hdr.raddr, hdr.total_size)
        if mr is None:
            self.stat("nic.rdma.writes_rejected").add()
            self.send_control(msg.src, AckHeader(op_id=hdr.op_id, ok=False))
            return
        self.sim.post(
            self.pcie.latency, self._place_write, msg.src, hdr, frag_off, nbytes, data
        )

    def _place_write(
        self, src: int, hdr: RdmaWriteHeader, frag_off: int, nbytes: int, data: bytes
    ) -> None:
        if data:
            self.memory.write(hdr.raddr + frag_off, data)
        self.stat("nic.rdma.bytes_placed").add(nbytes)
        got = self._op_bytes.get(hdr.op_id, 0) + nbytes
        if got < hdr.total_size:
            self._op_bytes[hdr.op_id] = got
            return
        self._op_bytes.pop(hdr.op_id, None)
        # Whole op placed: coalesced transport ack back to the initiator.
        self.send_control(src, AckHeader(op_id=hdr.op_id))
        if hdr.imm is not None:
            # Immediate data produces a *target-side* CQ entry; it
            # pipelines behind the payload DMA (posted writes).
            self.sim.post(
                COMPLETION_PIPELINE_GAP_NS,
                self.cq.push,
                CqEntry(
                    CqKind.WRITE_IMM,
                    hdr.op_id,
                    size=hdr.total_size,
                    imm=hdr.imm,
                    time=self.sim.now,
                ),
            )

    def _claim_recv(self, hdr: RdmaSendHeader) -> Optional[tuple[HostBuffer, int]]:
        """Match a posted receive for this send: first claim wins; later
        packets of the same op reuse the claim."""
        claim = self._recv_claims.get(hdr.op_id)
        if claim is not None:
            return claim
        for i, (buffer, wr_id, tag) in enumerate(self.recv_queue):
            if tag is None or tag == hdr.tag:
                del self.recv_queue[i]
                claim = (buffer, wr_id)
                self._recv_claims[hdr.op_id] = claim
                return claim
        return None

    def _on_send(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RdmaSendHeader = msg.header
        claim = self._claim_recv(hdr)
        if claim is None:
            # Receiver-not-ready: the flood-vulnerability RVMA's receiver
            # management addresses; NAK back, the initiator RNR-retries.
            self.stat("nic.rdma.rnr_drops").add()
            self.send_control(msg.src, AckHeader(op_id=hdr.op_id, ok=False))
            return
        buffer, wr_id = claim
        if delivery.packet is None:
            frag_off, nbytes, data = 0, msg.size, msg.data
        else:
            frag_off = delivery.packet.offset
            nbytes = delivery.packet.size
            data = delivery.packet.data
        if hdr.total_size > buffer.size:
            self.stat("nic.rdma.recv_too_small").add()
            self._recv_claims.pop(hdr.op_id, None)
            self.send_control(msg.src, AckHeader(op_id=hdr.op_id, ok=False))
            return
        self.sim.post(
            self.pcie.latency,
            self._place_send,
            msg.src,
            hdr,
            buffer,
            wr_id,
            frag_off,
            nbytes,
            data,
        )

    def _place_send(
        self,
        src: int,
        hdr: RdmaSendHeader,
        buffer: HostBuffer,
        wr_id: int,
        frag_off: int,
        nbytes: int,
        data: bytes,
    ) -> None:
        if data:
            buffer.write(frag_off, data)
        got = self._op_bytes.get(hdr.op_id, 0) + nbytes
        if got < hdr.total_size:
            self._op_bytes[hdr.op_id] = got
            return
        self._op_bytes.pop(hdr.op_id, None)
        self._recv_claims.pop(hdr.op_id, None)
        self.send_control(src, AckHeader(op_id=hdr.op_id))
        # The recv CQE pipelines behind the payload DMA (posted writes).
        self.sim.post(
            COMPLETION_PIPELINE_GAP_NS,
            self.cq.push,
            CqEntry(CqKind.RECV, hdr.op_id, hdr.total_size, None, wr_id, self.sim.now),
        )

    def _on_read(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RdmaReadHeader = msg.header
        mr = self._mr_for(hdr.rkey, hdr.raddr, hdr.length)
        if mr is None:
            self.stat("nic.rdma.reads_rejected").add()
            self.send_control(msg.src, RdmaReadReply(op_id=hdr.op_id, ok=False))
            return

        def reply() -> None:
            data = self.memory.read(hdr.raddr, hdr.length)
            self._inject_now(msg.src, hdr.length, RdmaReadReply(op_id=hdr.op_id, ok=True), data, None)

        self.sim.post(self.pcie.latency, reply)

    def _on_read_reply(self, delivery: Delivery) -> None:
        msg = delivery.message
        hdr: RdmaReadReply = msg.header
        op = self._pending.get(hdr.op_id)
        if op is None:
            return
        if not hdr.ok:
            self._pending.pop(hdr.op_id)
            self._read_dest.pop(hdr.op_id, None)
            entry = CqEntry(CqKind.ERROR, hdr.op_id, ok=False, time=self.sim.now)
            self.cq.push(entry)
            op.done.resolve(entry)
            return
        if delivery.packet is None:
            frag_off, nbytes, data = 0, msg.size, msg.data
        else:
            frag_off = delivery.packet.offset
            nbytes = delivery.packet.size
            data = delivery.packet.data
        dest = self._read_dest[hdr.op_id]
        got = self._op_bytes.get(hdr.op_id, 0) + nbytes

        def place() -> None:
            if data:
                dest.write(frag_off, data)
            if got >= op.size:
                self._op_bytes.pop(hdr.op_id, None)
                self._pending.pop(hdr.op_id, None)
                self._read_dest.pop(hdr.op_id, None)
                entry = CqEntry(
                    CqKind.READ_DONE, hdr.op_id, size=op.size, wr_id=op.wr_id, time=self.sim.now
                )
                self.cq.push(entry)
                op.done.resolve(entry)

        self._op_bytes[hdr.op_id] = got
        self.sim.post(self.pcie.latency, place)

    def _on_ack(self, delivery: Delivery) -> None:
        hdr: AckHeader = delivery.message.header
        op = self._pending.get(hdr.op_id)
        if op is None:
            return
        if not hdr.ok and op.kind is CqKind.SEND_DONE and op.retry and op.retry[3] > 0:
            # RNR NAK: back off and resend the same op (IB RC behaviour).
            data, tag, mode, left = op.retry
            op.retry = (data, tag, mode, left - 1)
            self.stat("nic.rdma.rnr_retries").add()
            resend = RdmaSendHeader(total_size=op.size, tag=tag, op_id=op.op_id)
            self.inject(op.dst, op.size, resend, data, mode, after=self.cfg.rnr_timeout)
            return
        self._pending.pop(hdr.op_id, None)
        kind = op.kind if hdr.ok else CqKind.ERROR
        entry = CqEntry(kind, op.op_id, op.size, None, op.wr_id, self.sim.now, hdr.ok)
        # CQ entry is DMAed to host memory before software can observe it.
        self.sim.post(self.pcie.latency, self._complete, op, entry)

    def _complete(self, op: RdmaOp, entry: CqEntry) -> None:
        """An acked op's completion reaches the host: CQ entry (when
        signaled), then ``op.done``."""
        if op.signaled:
            self.cq.push(entry)
        op.done.resolve(entry)
