"""Transfer protocol adapters: how a motif exchange maps onto RVMA vs RDMA.

This module encodes the protocol difference the paper's Figs 7-8
measure.  For a persistent sender->receiver channel re-used every
iteration:

**RVMA** (receiver-managed):
  setup: receiver creates a mailbox window (EPOCH_OPS, threshold 1) and
  posts a bucket of buffers.  send: one put — no coordination, "it
  simply sends the data when it is available" (§V-B1).  recv: wait on
  the buffer's own completion pointer, then locally re-post.

**RDMA** (spec-compliant on adaptive networks):
  setup: receiver registers a region and ships (addr, len, rkey) to the
  sender (Fig 1 steps 1-3, as real messages).  Every iteration then
  costs: receiver tells the sender the buffer is writable ("ready"),
  sender writes, waits for the transport ack (fence), and sends the
  1-byte completion signal the receiver's CQ recv reports.  Three
  control messages plus an ack wait per transfer — the overhead RVMA
  deletes.

Both adapters run on identical NIC/PCIe/network cost models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, Optional

from ..cluster.node import Node
from ..core.api import RvmaApi
from ..memory.buffer import HostBuffer
from ..nic.lut import BufferMode, EpochType
from ..network.routing import RoutingMode
from ..rdma.handshake import pack_region, unpack_region, DESC_BYTES
from ..rdma.ucx import UcpEndpoint
from ..rdma.verbs import VerbsEndpoint

#: Size of the per-iteration "buffer ready" notification (RDMA only).
READY_BYTES = 16
#: Size of the per-iteration completion signal (RDMA only).
SIGNAL_BYTES = 1


def mailbox_for(src: int, tag: int) -> int:
    """A unique 64-bit mailbox virtual address per (sender, tag)."""
    return ((src & 0xFFFFFFFF) << 16) | (tag & 0xFFFF)


def _wr(tag: int, kind: int) -> int:
    """wr_id namespace per channel: kind 0=desc, 1=ready, 2=complete."""
    return tag * 4 + kind


class RecvEndpoint(ABC):
    """Receiver half of a persistent channel."""

    @abstractmethod
    def recv(self) -> Generator:
        """Yield until the next message is complete; returns arrival info."""

    @abstractmethod
    def read_last(self, result, nbytes: int) -> bytes:
        """Payload bytes of the message *result* (from :meth:`recv`)."""

    def recv_data(self, nbytes: int) -> Generator:
        """Receive one message and return its first *nbytes* bytes."""
        result = yield from self.recv()
        return self.read_last(result, nbytes)


class SendEndpoint(ABC):
    """Sender half of a persistent channel."""

    @abstractmethod
    def send(self, size: int, data: bytes = b"") -> Generator:
        """Transfer *size* bytes (optionally real payload bytes);
        returns when the send buffer is reusable."""


class TransferProtocol(ABC):
    """Factory for channel endpoints on a given cluster."""

    name: str = "protocol"
    nic_type: str = "rvma"

    @abstractmethod
    def recv_setup(self, node: Node, src: int, tag: int, max_msg: int, slots: int) -> Generator:
        """Generator resolving to a :class:`RecvEndpoint`."""

    @abstractmethod
    def send_setup(self, node: Node, dst: int, tag: int, max_msg: int) -> Generator:
        """Generator resolving to a :class:`SendEndpoint`."""


# --------------------------------------------------------------------------- RVMA


class _RvmaRecv(RecvEndpoint):
    def __init__(self, api: RvmaApi, win, max_msg: int) -> None:
        self.api = api
        self.win = win
        self.max_msg = max_msg
        self.received = 0

    def recv(self) -> Generator:
        info = yield from self.api.wait_completion(self.win)
        self.received += 1
        # Receiver-side resource management: re-arm the same buffer
        # locally; the sender is never involved.
        yield from self.api.post_buffer(self.win, buffer=info.record.buffer)
        return info

    def read_last(self, result, nbytes: int) -> bytes:
        return result.record.buffer.read(0, nbytes)


class _RvmaSend(SendEndpoint):
    def __init__(self, api: RvmaApi, dst: int, mailbox: int, mode: Optional[RoutingMode]) -> None:
        self.api = api
        self.dst = dst
        self.mailbox = mailbox
        self.mode = mode
        self.sent = 0

    def send(self, size: int, data: bytes = b"") -> Generator:
        op = yield from self.api.put(
            self.dst, self.mailbox, data=data, size=size, mode=self.mode
        )
        yield op.local_done  # send buffer reusable once payload is on the wire
        self.sent += 1
        return op


class RvmaProtocol(TransferProtocol):
    """Mailbox puts with hardware threshold completion."""

    name = "rvma"
    nic_type = "rvma"

    def __init__(self, mode: Optional[RoutingMode] = None) -> None:
        self.mode = mode
        self._apis: dict[int, RvmaApi] = {}

    def api(self, node: Node) -> RvmaApi:
        """The per-node RVMA endpoint (cached)."""
        api = self._apis.get(node.node_id)
        if api is None:
            api = self._apis[node.node_id] = RvmaApi(node)
        return api

    def recv_setup(self, node: Node, src: int, tag: int, max_msg: int, slots: int) -> Generator:
        api = self.api(node)
        win = yield from api.init_window(
            mailbox_for(src, tag),
            epoch_threshold=1,
            epoch_type=EpochType.EPOCH_OPS,
            mode=BufferMode.STEERED,
        )
        for _ in range(slots):
            yield from api.post_buffer(win, size=max_msg)
        return _RvmaRecv(api, win, max_msg)

    def send_setup(self, node: Node, dst: int, tag: int, max_msg: int) -> Generator:
        # No discovery, no registration, no remote state: the defining
        # asymmetry with RDMA below.
        if False:  # pragma: no cover - keeps this a generator
            yield None
        return _RvmaSend(self.api(node), dst, mailbox_for(node.node_id, tag), self.mode)


# --------------------------------------------------------------------------- RDMA


class _RdmaRecv(RecvEndpoint):
    def __init__(
        self,
        verbs: VerbsEndpoint,
        sender: int,
        tag: int,
        buffer: HostBuffer,
        region,
        mode: Optional[RoutingMode],
    ) -> None:
        self.verbs = verbs
        self.sender = sender
        self.tag = tag
        self.buffer = buffer
        self.region = region
        self.mode = mode
        self.ctl = HostBuffer.allocate(verbs.node.memory, 64, label="rdma-ctl")
        self.received = 0

    def recv(self) -> Generator:
        # Arm for the completion signal *before* green-lighting the
        # sender, or the signal could beat the recv post.
        yield from self.verbs.post_recv(self.ctl, wr_id=_wr(self.tag, 2), tag=_wr(self.tag, 2))
        # Tell the sender the buffer may be overwritten (epoch sync).
        yield from self.verbs.send(
            self.sender, READY_BYTES, b"", tag=_wr(self.tag, 1),
            mode=self.mode, wr_id=_wr(self.tag, 1),
        )
        entry = yield from self.verbs.wait_cq(_wr(self.tag, 2))
        self.received += 1
        return entry

    def read_last(self, result, nbytes: int) -> bytes:
        return self.buffer.read(0, nbytes)


class _RdmaSend(SendEndpoint):
    def __init__(
        self,
        verbs: VerbsEndpoint,
        dst: int,
        tag: int,
        region,
        mode: Optional[RoutingMode],
    ) -> None:
        self.verbs = verbs
        self.dst = dst
        self.tag = tag
        self.region = region
        self.mode = mode
        self.ready_buf = HostBuffer.allocate(verbs.node.memory, 64, label="rdma-ready")
        self.sent = 0

    def send(self, size: int, data: bytes = b"") -> Generator:
        if size > self.region.length:
            raise ValueError(f"message of {size}B exceeds negotiated region")
        # Wait for the receiver's green light, then re-arm for the next one.
        yield from self.verbs.wait_cq(_wr(self.tag, 1))
        yield from self.verbs.post_recv(self.ready_buf, wr_id=_wr(self.tag, 1), tag=_wr(self.tag, 1))
        op = yield from self.verbs.rdma_write(
            self.dst, self.region, size, data, mode=self.mode, wr_id=_wr(self.tag, 2)
        )
        entry = yield op.done  # transport-ack fence before the signal
        if not entry.ok:
            raise RuntimeError(f"rdma write failed on channel tag {self.tag}")
        yield from self.verbs.send(
            self.dst, SIGNAL_BYTES, b"", tag=_wr(self.tag, 2),
            mode=self.mode, wr_id=_wr(self.tag, 2),
        )
        self.sent += 1
        return op


class RdmaProtocol(TransferProtocol):
    """Registered-region writes with ready/ack/signal coordination.

    One completion sequence, the only one that is correct on an adaptive
    network: write, transport-ack fence, then a trailing send/recv
    signal (:attr:`repro.rdma.completion_modes.CompletionMode.SEND_RECV`).
    """

    name = "rdma"
    nic_type = "rdma"

    def __init__(self, mode: Optional[RoutingMode] = None) -> None:
        self.mode = mode
        self._verbs: dict[int, VerbsEndpoint] = {}

    def verbs(self, node: Node) -> VerbsEndpoint:
        """The per-node Verbs endpoint (cached)."""
        v = self._verbs.get(node.node_id)
        if v is None:
            v = self._verbs[node.node_id] = VerbsEndpoint(node)
        return v

    def recv_setup(self, node: Node, src: int, tag: int, max_msg: int, slots: int) -> Generator:
        verbs = self.verbs(node)
        buffer = HostBuffer.allocate(node.memory, max_msg, label="rdma-landing")
        region = yield from verbs.reg_mr(buffer)
        # Fig 1 step 3: ship (addr, len, rkey) to the initiator.  Fire and
        # forget: waiting for the ack here can deadlock rank setup chains
        # (the peer may still be in its own recv_setup); RNR retry
        # guarantees eventual delivery once the peer posts its recv.
        desc = pack_region(region)
        yield from verbs.send(
            src, DESC_BYTES, desc, tag=_wr(tag, 0), mode=self.mode, wr_id=_wr(tag, 0)
        )
        return _RdmaRecv(verbs, src, tag, buffer, region, self.mode)

    def send_setup(self, node: Node, dst: int, tag: int, max_msg: int) -> Generator:
        verbs = self.verbs(node)
        desc_buf = HostBuffer.allocate(node.memory, DESC_BYTES, label="rdma-desc")
        yield from verbs.post_recv(desc_buf, wr_id=_wr(tag, 0), tag=_wr(tag, 0))
        ep = _RdmaSend(verbs, dst, tag, None, self.mode)
        # Arm the first "ready" recv before learning the region so the
        # receiver's first green light can never RNR.
        yield from verbs.post_recv(ep.ready_buf, wr_id=_wr(tag, 1), tag=_wr(tag, 1))
        yield from verbs.wait_cq(_wr(tag, 0))
        ep.region = unpack_region(desc_buf.read(), node_id=dst)
        return ep


# ---------------------------------------------------------------------------- UCX


def _utag(src: int, tag: int) -> int:
    """Tag-match namespace per (sender, channel): RDMA tag matching is
    receiver-global, so two senders sharing a channel tag would steal
    each other's landings without the source fold."""
    return ((src & 0x7FFF) << 16) | (tag & 0xFFFF)


class _UcxRecv(RecvEndpoint):
    def __init__(self, ucp: UcpEndpoint, src: int, tag: int, buffer: HostBuffer) -> None:
        self.ucp = ucp
        self.src = src
        self.tag = tag
        self.buffer = buffer
        self.received = 0

    def recv(self) -> Generator:
        entry = yield from self.ucp.tag_recv_wait(_utag(self.src, self.tag))
        # Re-arm before returning (microbench ping-pong idiom); a send
        # racing the re-arm RNR-NAKs and the initiator retries.
        yield from self.ucp.tag_recv_arm(self.buffer, tag=_utag(self.src, self.tag))
        self.received += 1
        return entry

    def read_last(self, result, nbytes: int) -> bytes:
        return self.buffer.read(0, nbytes)


class _UcxSend(SendEndpoint):
    def __init__(self, ucp: UcpEndpoint, dst: int, tag: int, mode: Optional[RoutingMode]) -> None:
        self.ucp = ucp
        self.dst = dst
        self.tag = tag
        self.mode = mode
        self.sent = 0

    def send(self, size: int, data: bytes = b"") -> Generator:
        op = yield from self.ucp.tag_send(
            self.dst, size, data, tag=_utag(self.ucp.node.node_id, self.tag), mode=self.mode
        )
        entry = yield op.done
        if not entry.ok:
            raise RuntimeError(f"ucx tag send failed on channel tag {self.tag}")
        self.sent += 1
        return op


class UcxProtocol(TransferProtocol):
    """UCP tagged messaging over the RDMA NIC (paper §V-A2).

    Same hardware as :class:`RdmaProtocol`, more software per op: UCP
    dispatch/matching costs on every send and receive.  Tag matching
    replaces the explicit ready/signal round trips — the receiver
    pre-posts a tagged landing buffer and RNR retry absorbs re-arm
    races, mirroring the microbenchmark ping-pong idiom.
    """

    name = "ucx"
    nic_type = "rdma"

    def __init__(self, mode: Optional[RoutingMode] = None) -> None:
        self.mode = mode
        self._eps: dict[int, UcpEndpoint] = {}

    def ucp(self, node: Node) -> UcpEndpoint:
        """The per-node UCP worker (cached)."""
        ep = self._eps.get(node.node_id)
        if ep is None:
            ep = self._eps[node.node_id] = UcpEndpoint(node)
        return ep

    def recv_setup(self, node: Node, src: int, tag: int, max_msg: int, slots: int) -> Generator:
        ucp = self.ucp(node)
        buffer = HostBuffer.allocate(node.memory, max_msg, label="ucx-landing")
        yield from ucp.tag_recv_arm(buffer, tag=_utag(src, tag))
        return _UcxRecv(ucp, src, tag, buffer)

    def send_setup(self, node: Node, dst: int, tag: int, max_msg: int) -> Generator:
        if False:  # pragma: no cover - keeps this a generator
            yield None
        return _UcxSend(self.ucp(node), dst, tag, self.mode)
