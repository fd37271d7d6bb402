"""Typed views over node memory: receive buffers and RDMA memory regions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .memory import Allocation, NodeMemory


class HostBuffer:
    """A user buffer living in a node's memory.

    Wraps an :class:`Allocation` with convenience read/write that is
    bounds-checked against the buffer, not just the allocation.
    """

    __slots__ = ("memory", "alloc", "line", "unconsumed")

    def __init__(self, memory: NodeMemory, alloc: Allocation) -> None:
        self.memory = memory
        self.alloc = alloc
        #: Completion notification line of this buffer's first RVMA
        #: posting, reused by later postings (see ``RvmaApi.post_buffer``).
        self.line: Optional[int] = None
        #: RVMA postings of this buffer not yet consumed by ``wait_completion``.
        self.unconsumed = 0

    @classmethod
    def allocate(cls, memory: NodeMemory, size: int, label: str = "buf") -> "HostBuffer":
        return cls(memory, memory.alloc(size, label=label))

    @property
    def addr(self) -> int:
        return self.alloc.base

    @property
    def size(self) -> int:
        return self.alloc.size

    def write(self, offset: int, data: bytes) -> None:
        """Store *data* at *offset*; bounds-checked against the buffer."""
        if offset < 0 or offset + len(data) > self.size:
            raise ValueError(
                f"write [{offset}, +{len(data)}) exceeds buffer of {self.size} bytes"
            )
        self.memory.write(self.addr + offset, data)

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Load *length* bytes from *offset* (defaults to the rest)."""
        if length is None:
            length = self.size - offset
        if offset < 0 or offset + length > self.size:
            raise ValueError(
                f"read [{offset}, +{length}) exceeds buffer of {self.size} bytes"
            )
        return self.memory.read(self.addr + offset, length)

    def contents(self) -> bytes:
        """The whole buffer as bytes."""
        return self.read(0, self.size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HostBuffer addr={self.addr:#x} size={self.size}>"


@dataclass(frozen=True)
class MemoryRegion:
    """An RDMA-registered memory region (the thing RVMA hides).

    In RDMA, the *initiator* holds ``(addr, length, rkey)`` for the
    target's memory and embeds the raw address in every operation —
    exactly the exposure RVMA's mailbox indirection removes.
    """

    addr: int
    length: int
    rkey: int
    node_id: int
    lkey: int = 0

    def contains(self, addr: int, length: int) -> bool:
        """Whether [addr, addr+length) falls inside this region."""
        return self.addr <= addr and addr + length <= self.addr + self.length


@dataclass(slots=True)
class PostedBuffer:
    """A receive buffer as posted to an RVMA mailbox (paper §III-B).

    Carries everything ``RVMA_Post_buffer`` hands the NIC: where the
    data goes, how completion is detected, and where the two completion
    words (head pointer, then length) are written.  Slotted: one is
    made per posting, so it carries no per-instance ``__dict__``.
    """

    buffer: HostBuffer
    #: Address the NIC writes the completed buffer's head pointer to.
    notification_addr: int
    #: Address the NIC writes the completed byte count to (typically
    #: notification_addr + 8, same cache line — paper §III-B).
    length_addr: int
    #: EPOCH_BYTES => count of payload bytes; EPOCH_OPS => count of puts.
    threshold: int
    #: Running counter maintained by the NIC's completion unit.
    counter: int = 0
    #: Highest byte offset written + 1 (reported length for op-counted buffers).
    bytes_received: int = 0
    #: Epoch number assigned when the buffer became the active head.
    epoch: int = -1
    completed: bool = False
    #: Set by crash-recovery replay: this epoch must close exactly at its
    #: journaled ``threshold`` (``recovery/rejoin.py``).
    replay_boundary: bool = field(default=False, init=False, repr=False, compare=False)
    #: Open ``epoch_fill`` span while the buffer fills with spans on.
    _obs_span: Optional[object] = field(default=None, init=False, repr=False, compare=False)
