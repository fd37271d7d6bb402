"""Receiver-Managed RVMA: sockets-style streaming (paper §IV-B).

In Receiver-Managed mode the NIC ignores offsets and appends incoming
bytes consecutively into the active buffer, so unmodified stream-style
code maps onto RVMA with "very minimal middleware support".  This
module is that minimal middleware: a server-side stream endpoint that
surfaces completed chunks, and a client-side writer.

Stream placement follows arrival order, so the transport must deliver
in order (use static routing, as sockets-over-fabric deployments do).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from ..memory.buffer import HostBuffer
from ..memory.mwait import MWAIT, WakeupModel
from ..nic.lut import BufferMode, EpochType
from ..network.routing import RoutingMode
from .api import RvmaApi
from .status import RvmaApiError, RvmaStatus
from .window import Window


class StreamServer:
    """Receiving end of a receiver-managed byte stream.

    Holds at most ``n_chunks + retain_epochs`` chunk buffers, where
    ``retain_epochs`` is the depth of the NIC's rewind ring: a consumed
    chunk is re-posted once it has left that ring (see :meth:`recv`).
    """

    def __init__(self, api: RvmaApi, mailbox: int, chunk_size: int, n_chunks: int = 4) -> None:
        if chunk_size <= 0 or n_chunks <= 0:
            raise RvmaApiError(RvmaStatus.ERR_INVALID, "chunk sizing must be positive")
        self.api = api
        self.mailbox = mailbox
        self.chunk_size = chunk_size
        self.n_chunks = n_chunks
        self.win: Optional[Window] = None
        #: Consumed chunks, oldest first, that the rewind ring may still hold.
        self._spent: deque[HostBuffer] = deque()

    def open(self) -> Generator:
        """Create the managed-mode window and arm its chunk buffers."""
        self.win = yield from self.api.init_window(
            self.mailbox,
            epoch_threshold=self.chunk_size,
            epoch_type=EpochType.EPOCH_BYTES,
            mode=BufferMode.MANAGED,
        )
        for _ in range(self.n_chunks):
            yield from self.api.post_buffer(self.win, size=self.chunk_size)
        return self.win

    def recv(self, wakeup: WakeupModel = MWAIT) -> Generator:
        """Block until the next chunk completes; returns its bytes.

        Re-arms a replacement buffer so the stream never starves —
        receiver-side resource management in action.  The replacement
        is the chunk consumed ``retain_epochs`` completions ago: the
        NIC's rewind ring holds the last ``retain_epochs`` completed
        epochs, and that chunk is no longer one of them.  Until then,
        and on a NIC that journals posts for crash recovery (whose
        restore re-fills consumed epochs), a fresh chunk.
        """
        info = yield from self.api.wait_completion(self.win, wakeup)
        data = info.read_data()
        spent = self._spent
        if self.api.nic.op_journal is None:
            spent.append(info.record.buffer)
        if len(spent) > self.api.nic.lut.retain_epochs:
            yield from self.api.post_buffer(self.win, buffer=spent.popleft())
        else:
            yield from self.api.post_buffer(self.win, size=self.chunk_size)
        return data

    def flush(self) -> Generator:
        """Surface a partially filled chunk now (``RVMA_Win_inc_epoch``)."""
        status = yield from self.api.win_inc_epoch(self.win)
        return status

    def poll_ready(self) -> bool:
        """True when a completed chunk is waiting (non-blocking check:
        one host-memory read of the next notification word)."""
        try:
            record = self.win.next_unconsumed()
        except IndexError:
            return False
        return self.api.node.memory.read_u64(record.notification_addr) != 0

    def close(self) -> Generator:
        """Close the stream's window; later writes are discarded."""
        status = yield from self.api.close_win(self.win)
        return status


class StreamClient:
    """Sending end: write bytes to the server's mailbox like a socket."""

    def __init__(
        self,
        api: RvmaApi,
        server_node: int,
        mailbox: int,
        mode: RoutingMode = RoutingMode.STATIC,
    ) -> None:
        self.api = api
        self.server_node = server_node
        self.mailbox = mailbox
        self.mode = mode
        self.bytes_sent = 0

    def send(self, data: bytes) -> Generator:
        """Stream *data*; returns the PutOp (local completion handle)."""
        op = yield from self.api.put(
            self.server_node, self.mailbox, data=data, mode=self.mode
        )
        self.bytes_sent += len(data)
        return op
