"""The RDMA buffer-negotiation handshake (paper Fig 1, steps 1-3).

Before any RDMA data can move, the initiator must obtain the target
buffer's ``(addr, length, rkey)``: request over send/recv, allocation +
registration at the target, reply over send/recv.  RVMA removes this
entirely (mailboxes need no discovery), which is what Fig 6 amortises.

The region descriptor travels as real bytes (24-byte wire format), so
tests can verify the initiator truly learns raw remote addresses —
the exposure RVMA hides.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Generator

from ..memory.buffer import HostBuffer, MemoryRegion
from .verbs import VerbsEndpoint

#: wire format: u64 addr, u64 length, u64 rkey
_DESC = struct.Struct("<QQQ")
DESC_BYTES = _DESC.size
#: request wire format: u64 requested size, u64 request tag
_REQ = struct.Struct("<QQ")

#: wr_id namespaces so handshake traffic demuxes cleanly on shared CQs.
WR_HANDSHAKE_REQ = 0x48535251  # "HSRQ"
WR_HANDSHAKE_REP = 0x48535250  # "HSRP"


@dataclass
class HandshakeResult:
    """What the initiator ends up holding (and must retain!)."""

    region: MemoryRegion
    elapsed: float


def pack_region(mr: MemoryRegion) -> bytes:
    return _DESC.pack(mr.addr, mr.length, mr.rkey)


def unpack_region(data: bytes, node_id: int) -> MemoryRegion:
    addr, length, rkey = _DESC.unpack(data[:DESC_BYTES])
    return MemoryRegion(addr=addr, length=length, rkey=rkey, node_id=node_id)


def client_request_region(verbs: VerbsEndpoint, server: int, size: int) -> Generator:
    """Initiator side of Fig 1 steps 1+3: request, then learn (addr,len,rkey).

    Returns a :class:`HandshakeResult` with the elapsed setup time —
    the quantity Fig 6 amortises over subsequent transfers.
    """
    t0 = verbs.sim.now
    reply_buf = HostBuffer.allocate(verbs.node.memory, DESC_BYTES, label="hs-reply")
    yield from verbs.post_recv(reply_buf, wr_id=WR_HANDSHAKE_REP, tag=WR_HANDSHAKE_REP)
    req = _REQ.pack(size, WR_HANDSHAKE_REQ)
    op = yield from verbs.send(server, len(req), req, tag=WR_HANDSHAKE_REQ, wr_id=WR_HANDSHAKE_REQ)
    entry = yield op.done
    if not entry.ok:
        raise RuntimeError("handshake request failed (server not listening?)")
    yield from verbs.wait_cq(WR_HANDSHAKE_REP)
    region = unpack_region(reply_buf.read(), node_id=server)
    return HandshakeResult(region=region, elapsed=verbs.sim.now - t0)


def server_serve_region(verbs: VerbsEndpoint, client: int) -> Generator:
    """Target side of Fig 1 step 2: allocate, register, reply.

    Returns ``(buffer, region)`` — the buffer is now dedicated to the
    client until it signals it is done (the RDMA resource-management
    problem the paper's receiver management fixes).
    """
    req_buf = HostBuffer.allocate(verbs.node.memory, _REQ.size, label="hs-req")
    yield from verbs.post_recv(req_buf, wr_id=WR_HANDSHAKE_REQ, tag=WR_HANDSHAKE_REQ)
    yield from verbs.wait_cq(WR_HANDSHAKE_REQ)
    size, _tag = _REQ.unpack(req_buf.read())
    buffer = HostBuffer.allocate(verbs.node.memory, int(size), label="rdma-region")
    region = yield from verbs.reg_mr(buffer)
    desc = pack_region(region)
    op = yield from verbs.send(client, len(desc), desc, tag=WR_HANDSHAKE_REP, wr_id=WR_HANDSHAKE_REP)
    yield op.done
    return buffer, region
