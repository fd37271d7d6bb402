"""A sockets-style API over Receiver-Managed RVMA (paper §IV-B).

The paper argues RVMA "efficiently supports sockets-based network code
with very minimal middleware support, unlike contemporary
sockets-to-RDMA libraries".  This module is that middleware, and it is
minimal indeed:

* a **listener mailbox** per (node, port) accepts fixed-size connect
  requests (the receiver keeps it armed — receiver-managed resources);
* each accepted connection gets a pair of Receiver-Managed stream
  windows (one per direction) whose mailboxes are derived from the
  connection id — no address exchange beyond the connect hello;
* ``send`` is an RVMA put; ``recv`` drains completed chunks, with
  `RVMA_Win_inc_epoch` flushing partial tails — byte-stream semantics
  without a byte of ordering machinery on the NIC.

Requires an ordered transport (static routing), as deployed
sockets-over-fabric stacks use.  Like TCP, senders must not outrun the
receiver's advertised capacity (``depth`` chunks in flight): a NACKed
stream put is retried for *reliability*, but the retry re-appends at
its new arrival position, which scrambles MANAGED-mode byte order —
so the connection handshake is three-way (hello, window setup, ack),
and applications size ``depth`` to their burst length.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

from ..core.api import RvmaApi
from ..core.receiver_managed import StreamClient, StreamServer
from ..nic.lut import BufferMode, EpochType
from ..network.routing import RoutingMode

#: Mailbox namespace for listener (port) mailboxes.
LISTEN_TAG = 0x4C00  # 'L'
#: Mailbox namespace for per-connection stream mailboxes.
CONN_TAG = 0x5300  # 'S'
#: Mailbox namespace for the accept-acknowledgement (3-way handshake).
ACK_TAG = 0x4100  # 'A'

#: Connect request wire format: u32 client node, u32 client port,
#: u64 connection id proposed by the client.
_HELLO = struct.Struct("<IIQ")
HELLO_BYTES = _HELLO.size

DEFAULT_CHUNK = 1024
DEFAULT_DEPTH = 8


def _listen_mailbox(port: int) -> int:
    return (LISTEN_TAG << 32) | (port & 0xFFFFFFFF)


def _stream_mailbox(conn_id: int, server_side: bool) -> int:
    # One mailbox per direction: the side that RECEIVES owns it.
    return (CONN_TAG << 32) | (conn_id << 1) | (1 if server_side else 0)


def _ack_mailbox(conn_id: int) -> int:
    return (ACK_TAG << 32) | conn_id


class SocketError(RuntimeError):
    """Raised for an operation on a closed connection."""


@dataclass
class Connection:
    """One bidirectional byte-stream connection."""

    api: RvmaApi
    peer_node: int
    conn_id: int
    #: Stream we receive on (we own the window).
    rx: StreamServer
    #: Stream we send on (peer owns the window).
    tx: StreamClient
    _pending: deque = field(default_factory=deque)  # buffered recv bytes
    closed: bool = False

    # --- data -----------------------------------------------------------------

    def send(self, data: bytes) -> Generator:
        """Stream *data* to the peer (returns when locally complete)."""
        if self.closed:
            raise SocketError("send on closed connection")
        op = yield from self.tx.send(data)
        yield op.local_done
        return len(data)

    #: Poll interval while waiting for bytes that sit in a partial
    #: chunk (the PSH-like pull; see recv).
    POLL_NS = 1_000.0

    def _drain_pending(self, out: bytearray, nbytes: int) -> None:
        while self._pending and len(out) < nbytes:
            chunk = self._pending[0]
            take = min(len(chunk), nbytes - len(out))
            out.extend(chunk[:take])
            if take == len(chunk):
                self._pending.popleft()
            else:
                self._pending[0] = chunk[take:]

    def _pull_more(self) -> Generator:
        """Bring at least the peer's next bytes into the pending queue.

        Full chunks are consumed directly; otherwise the receiver
        flushes its own window tail (``RVMA_Win_inc_epoch``) so short
        messages surface without waiting for a chunk boundary — the
        receiver-side equivalent of TCP's PSH delivery.
        """
        while True:
            if self.rx.poll_ready():
                chunk = yield from self.rx.recv()
                self._pending.append(chunk)
                return
            got = yield from self.flush_peer_tail()
            if got:
                return
            yield self.POLL_NS

    def recv(self, nbytes: int) -> Generator:
        """Receive exactly *nbytes* (blocking, like MSG_WAITALL).

        Returns partial in-flight bytes as they surface, so the call
        completes as soon as *nbytes* have arrived — regardless of chunk
        alignment.
        """
        if self.closed and not self._pending:
            raise SocketError("recv on closed connection")
        out = bytearray()
        while len(out) < nbytes:
            self._drain_pending(out, nbytes)
            if len(out) < nbytes:
                yield from self._pull_more()
        return bytes(out)

    def recv_some(self) -> Generator:
        """Receive whatever arrives next, like a plain recv."""
        if self._pending:
            return bytes(self._pending.popleft())
        yield from self._pull_more()
        return bytes(self._pending.popleft())

    def flush_peer_tail(self) -> Generator:
        """Surface a partially-filled incoming chunk now (push semantics)."""
        yield from self.rx.flush()
        data = yield from self.rx.recv()
        if data:
            self._pending.append(data)
        return len(data)

    def close(self) -> Generator:
        """Close our receive window; peer sends will NACK."""
        self.closed = True
        yield from self.rx.close()
        return None


class RvmaListener:
    """Server side: ``listen`` then ``accept`` connections on a port."""

    def __init__(
        self,
        api: RvmaApi,
        port: int,
        chunk_size: int = DEFAULT_CHUNK,
        depth: int = DEFAULT_DEPTH,
        backlog: int = 8,
    ) -> None:
        self.api = api
        self.port = port
        self.chunk_size = chunk_size
        self.depth = depth
        self.backlog = backlog
        self.win = None

    def listen(self) -> Generator:
        """Arm the listener mailbox with `backlog` hello-sized buffers."""
        self.win = yield from self.api.init_window(
            _listen_mailbox(self.port),
            epoch_threshold=HELLO_BYTES,
            epoch_type=EpochType.EPOCH_BYTES,
            mode=BufferMode.MANAGED,
        )
        for _ in range(self.backlog):
            yield from self.api.post_buffer(self.win, size=HELLO_BYTES)
        return self

    def accept(self) -> Generator:
        """Block for the next connect request; returns a Connection."""
        info = yield from self.api.wait_completion(self.win)
        client_node, _client_port, conn_id = _HELLO.unpack(info.read_data())
        # Re-arm the listener slot (receiver-managed: our pace, our memory).
        yield from self.api.post_buffer(self.win, size=HELLO_BYTES)
        # Our receive stream: mailbox derived from the connection id.
        rx = StreamServer(
            self.api, _stream_mailbox(conn_id, server_side=True),
            self.chunk_size, self.depth,
        )
        yield from rx.open()
        tx = StreamClient(
            self.api, client_node, _stream_mailbox(conn_id, server_side=False),
            mode=RoutingMode.STATIC,
        )
        # Third leg of the handshake: the client must not stream a byte
        # before our window exists — a NACK-retried put would re-append
        # out of order in MANAGED mode.  One tiny steered put says "go".
        op = yield from self.api.put(
            client_node, _ack_mailbox(conn_id), data=b"\x06", mode=RoutingMode.STATIC
        )
        yield op.local_done
        return Connection(
            api=self.api, peer_node=client_node, conn_id=conn_id, rx=rx, tx=tx
        )

    def close(self) -> Generator:
        yield from self.api.close_win(self.win)
        return None


_conn_ids = iter(range(1, 1 << 30))


def connect(
    api: RvmaApi,
    server_node: int,
    port: int,
    chunk_size: int = DEFAULT_CHUNK,
    depth: int = DEFAULT_DEPTH,
) -> Generator:
    """Client side: open a connection to (server_node, port).

    The client arms its receive stream *before* the hello, so the
    server's first bytes can never race the window (and RVMA's NACK
    retry covers the reverse race on slow servers).
    """
    conn_id = next(_conn_ids)
    rx = StreamServer(
        api, _stream_mailbox(conn_id, server_side=False), chunk_size, depth
    )
    yield from rx.open()
    # Arm the accept-ack window before saying hello (SYN -> SYN/ACK).
    ack_win = yield from api.init_window(
        _ack_mailbox(conn_id), epoch_threshold=1, epoch_type=EpochType.EPOCH_BYTES
    )
    yield from api.post_buffer(ack_win, size=1)
    hello = _HELLO.pack(api.node.node_id, 0, conn_id)
    op = yield from api.put(
        server_node, _listen_mailbox(port), data=hello, mode=RoutingMode.STATIC
    )
    yield op.local_done
    # Block until the server's stream window provably exists.
    yield from api.wait_completion(ack_win)
    yield from api.close_win(ack_win)
    tx = StreamClient(
        api, server_node, _stream_mailbox(conn_id, server_side=True),
        mode=RoutingMode.STATIC,
    )
    return Connection(api=api, peer_node=server_node, conn_id=conn_id, rx=rx, tx=tx)
