"""IB Verbs-flavoured software layer over the RDMA NIC (paper §V-A1).

Models the ``ibv_*`` fast path with per-call software costs, the
spec-compliant write-then-send completion sequence the paper adds to
OFED perftest, and the (unsafe-on-adaptive) last-byte polling fast
path used on statically routed InfiniBand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..memory.buffer import HostBuffer, MemoryRegion
from ..memory.mwait import POLL
from ..nic.rdma import RdmaNic
from ..network.routing import RoutingMode
from .completion_modes import CompletionMode, check_mode_safety
from .dispatch import CqDispatcher

#: Size of the completion-signalling send appended after a write
#: (the paper's modified perftest uses 1 byte).
SIGNAL_BYTES = 1


@dataclass(frozen=True)
class VerbsCosts:
    """Software-path costs (ns) for the Verbs interface."""

    post_send: float = 90.0  # ibv_post_send + doorbell prep
    post_recv: float = 70.0
    poll_cq: float = 45.0  # successful ibv_poll_cq
    reg_mr_base: float = 1600.0  # ibv_reg_mr syscall + pinning setup
    reg_mr_per_kb: float = 55.0  # per-page pinning/translation


class VerbsEndpoint:
    """One process's Verbs context on a node with an RDMA NIC."""

    def __init__(self, node, costs: Optional[VerbsCosts] = None) -> None:
        if not isinstance(node.nic, RdmaNic):
            raise TypeError("VerbsEndpoint requires a node with an RDMA NIC")
        self.node = node
        self.nic: RdmaNic = node.nic
        self.sim = node.sim
        self.costs = costs or VerbsCosts()
        self.dispatcher = CqDispatcher(self.sim, self.nic.cq)

    # ------------------------------------------------------------------ setup

    def reg_mr(self, buffer: HostBuffer) -> Generator:
        """Register *buffer*; returns its MemoryRegion."""
        yield self.costs.reg_mr_base + self.costs.reg_mr_per_kb * (buffer.size / 1024.0)
        mr = yield self.nic.hw_reg_mr(buffer)
        if isinstance(mr, Exception):
            raise mr
        return mr

    def post_recv(
        self, buffer: HostBuffer, wr_id: int = 0, tag: Optional[int] = None
    ) -> Generator:
        yield self.costs.post_recv
        yield self.nic.hw_post_recv(buffer, wr_id, tag)
        return True

    # ------------------------------------------------------------------ data path

    def rdma_write(
        self,
        dst: int,
        region: MemoryRegion,
        size: int,
        data: bytes = b"",
        offset: int = 0,
        mode: Optional[RoutingMode] = None,
        wr_id: int = 0,
        signaled: bool = True,
    ) -> Generator:
        """Post an RDMA write to a remote region; returns the RdmaOp."""
        if offset + size > region.length:
            raise ValueError(
                f"write [{offset}, +{size}) exceeds region of {region.length} bytes"
            )
        yield self.costs.post_send
        return self.nic.hw_write(
            dst, region.addr + offset, region.rkey, size, data, None, mode, wr_id,
            signaled=signaled,
        )

    def send(
        self,
        dst: int,
        size: int,
        data: bytes = b"",
        tag: int = 0,
        mode: Optional[RoutingMode] = None,
        wr_id: int = 0,
        signaled: bool = True,
    ) -> Generator:
        yield self.costs.post_send
        return self.nic.hw_send(dst, size, data, tag, mode, wr_id, signaled=signaled)

    def wait_cq(self, wr_id: int) -> Generator:
        """Poll the shared CQ until the next receive completion of *wr_id*
        is harvested."""
        entry = yield self.dispatcher.wait_wr(wr_id)
        yield self.costs.poll_cq
        return entry

    # ------------------------------------------------------------------ completion sequences

    def write_with_completion(
        self,
        dst: int,
        region: MemoryRegion,
        size: int,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
        completion: CompletionMode = CompletionMode.SEND_RECV,
        wr_id: int = 0,
    ) -> Generator:
        """Initiator side of a spec-compliant completed write.

        SEND_RECV: write, wait for the transport ack (the fence — on an
        adaptive network the trailing send may not overtake data), then
        issue the 1-byte signalling send.  LAST_BYTE_POLL: the write
        alone (the receiver polls memory).
        """
        op = yield from self.rdma_write(dst, region, size, data, 0, mode, wr_id)
        if completion is CompletionMode.LAST_BYTE_POLL:
            return op
        entry = yield op.done  # ack fence
        yield self.costs.poll_cq  # harvesting the write CQE costs a poll
        if not entry.ok:
            raise RuntimeError(f"rdma write failed: {entry}")
        sig = yield from self.send(dst, SIGNAL_BYTES, b"\x01", tag=wr_id, mode=mode, wr_id=wr_id)
        return sig

    def wait_write_completion(
        self,
        region_buffer: HostBuffer,
        completion: CompletionMode,
        routing: RoutingMode,
        ctl_buffer: Optional[HostBuffer] = None,
        wr_id: int = 0,
    ) -> Generator:
        """Target side: detect that an incoming write finished.

        LAST_BYTE_POLL requires a statically routed (byte-ordered)
        network — :func:`check_mode_safety` refuses it otherwise.
        """
        check_mode_safety(completion, routing)
        if completion is CompletionMode.LAST_BYTE_POLL:
            last = region_buffer.addr + region_buffer.size - 1
            addr = yield self.node.waiter.wait_for_write(last, POLL)
            return addr
        if ctl_buffer is None:
            raise ValueError("SEND_RECV completion needs a posted control buffer")
        entry = yield from self.wait_cq(wr_id)
        return entry
