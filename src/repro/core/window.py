"""The RVMA window object (the paper's ``RVMA_win``).

A window binds one mailbox virtual address on one node to a bucket of
posted buffers plus their completion notification slots.  Notification
slots are 16 bytes (head pointer + length), cache-line aligned so that
both words land in one NIC store and one MWait wake (paper §III-B).
The window keeps only the postings software has not consumed yet, so
its size follows the buffers in flight, not the completions so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.address import CACHE_LINE
from ..memory.buffer import HostBuffer, PostedBuffer
from ..nic.lut import BufferMode, EpochType


@dataclass(slots=True)
class PostedRecord:
    """Software-side record of one posted buffer and its slots."""

    buffer: HostBuffer
    posted: PostedBuffer
    notification_addr: int
    length_addr: int


@dataclass(slots=True)
class CompletionInfo:
    """What ``wait_completion`` returns: the completed buffer's identity."""

    head_addr: int
    length: int
    record: PostedRecord

    def read_data(self) -> bytes:
        """Contents of the completed buffer (up to the reported length)."""
        return self.record.buffer.memory.read(self.head_addr, self.length)


@dataclass
class Window:
    """User handle for one RVMA mailbox on one node."""

    node: "object"  # repro.cluster.node.Node (kept loose to avoid cycles)
    virtual_addr: int
    key: int
    epoch_threshold: int
    epoch_type: EpochType
    mode: BufferMode = BufferMode.STEERED
    #: Postings not yet consumed via wait_completion, oldest first.  A
    #: list, not a deque: a bucket is a few buffers deep, and an empty
    #: deque costs 760 bytes against a list's 56 on every window.
    posted: list[PostedRecord] = field(default_factory=list)
    #: Number of completions already consumed via wait_completion.
    consumed: int = 0
    closed: bool = False

    def next_unconsumed(self) -> PostedRecord:
        """The oldest posted buffer not yet consumed by wait_completion."""
        if not self.posted:
            raise IndexError(
                f"window {self.virtual_addr:#x}: no posted buffer left to wait on "
                f"(consumed={self.consumed})"
            )
        return self.posted[0]

    @property
    def buffers_outstanding(self) -> int:
        """Posted buffers not yet consumed by the application."""
        return len(self.posted)


def alloc_notification_slot(memory) -> tuple[int, int]:
    """Allocate a fresh cache-line slot; returns (notify_addr, length_addr).

    The line reads zero without a write: ``NodeMemory`` never reuses an
    address, so no store has reached it and nothing watches it yet; its
    backing bytes materialize only when the NIC writes the completion.
    A reused line is zeroed by its caller (``RvmaApi.post_buffer``).
    """
    alloc = memory.alloc(CACHE_LINE, align=CACHE_LINE, label="rvma-notify")
    return alloc.base, alloc.base + 8
