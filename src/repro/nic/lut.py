"""The RVMA mailbox lookup table (paper Fig 2, §IV-A).

A bounded, wildcard-free table mapping 64-bit mailbox virtual addresses
to buckets of receiver-posted buffers.  Unlike Portals matching, a
lookup resolves to at most one entry in a single probe — the property
that keeps the hardware simple.

Counter pool: the NIC holds a finite number of threshold counters (one
per *active* buffer).  When the pool is exhausted, counters spill to
host memory and each completion check pays a PCIe round trip
(paper §III-B) — exercised by ablation A1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..memory.address import RVMA_ADDR_MASK
from ..memory.buffer import PostedBuffer


class EpochType(Enum):
    """Interpretation of a window's epoch threshold (paper §III-C)."""

    EPOCH_BYTES = "bytes"
    EPOCH_OPS = "ops"


class BufferMode(Enum):
    """Receiver-Steered (HPC offsets) vs Receiver-Managed (stream append),
    paper §IV-B."""

    STEERED = "steered"
    MANAGED = "managed"


class LutError(RuntimeError):
    """Raised when the table or counter pool cannot satisfy a request."""


@dataclass(slots=True)
class RetiredBuffer:
    """Completed-epoch record kept for rewind (paper §IV-F)."""

    head_addr: int
    length: int
    epoch: int
    buffer: PostedBuffer


@dataclass(slots=True)
class MailboxEntry:
    """State for one mailbox: its bucket of buffers and epoch history.

    Slotted, and both sequences are lists, not deques: a bucket is a few
    buffers deep and the rewind ring at most ``retain_epochs`` long, so
    popping index 0 is cheap, while an empty deque costs 760 bytes
    against a list's 56 on every mailbox.
    """

    mailbox: int
    threshold_type: EpochType
    mode: BufferMode
    #: The bucket of posted buffers; ``[0]`` is the active one.
    queue: list[PostedBuffer] = field(default_factory=list)
    #: Rewind ring: the last ``retain_epochs`` retired buffers, oldest first.
    retired: list[RetiredBuffer] = field(default_factory=list)
    epoch: int = 0  # completed-buffer count == current epoch number
    closed: bool = False
    #: True while the active buffer's counter lives in host memory.
    counter_spilled: bool = False

    @property
    def active(self) -> Optional[PostedBuffer]:
        return self.queue[0] if self.queue else None


class MailboxLUT:
    """Bounded mailbox table plus the NIC threshold-counter pool."""

    def __init__(
        self,
        max_entries: int = 4096,
        max_counters: int = 1024,
        retain_epochs: int = 8,
    ) -> None:
        if max_entries < 1 or max_counters < 0 or retain_epochs < 0:
            raise ValueError("invalid LUT sizing")
        self.max_entries = max_entries
        self.max_counters = max_counters
        self.retain_epochs = retain_epochs
        self.entries: dict[int, MailboxEntry] = {}
        self.counters_in_use = 0
        self.spill_events = 0
        self.lookups = 0
        self.catch_all: Optional[MailboxEntry] = None

    # --- entry management ------------------------------------------------------

    def init_entry(
        self, mailbox: int, threshold_type: EpochType, mode: BufferMode = BufferMode.STEERED
    ) -> MailboxEntry:
        mailbox &= RVMA_ADDR_MASK
        existing = self.entries.get(mailbox)
        if existing is not None:
            if existing.closed:
                # Re-opening a closed window reuses the slot with fresh
                # state: the previous incarnation's bucket, counters and
                # epoch history do not leak into the new window.
                if existing.active is not None and not existing.counter_spilled:
                    self.counters_in_use -= 1
                existing.queue.clear()
                existing.retired.clear()
                existing.epoch = 0
                existing.counter_spilled = False
                existing.closed = False
                existing.threshold_type = threshold_type
                existing.mode = mode
                return existing
            raise LutError(f"mailbox {mailbox:#x} already initialised")
        if len(self.entries) >= self.max_entries:
            raise LutError(f"LUT full ({self.max_entries} entries)")
        entry = MailboxEntry(mailbox=mailbox, threshold_type=threshold_type, mode=mode)
        self.entries[mailbox] = entry
        return entry

    def lookup(self, mailbox: int) -> Optional[MailboxEntry]:
        """Single-probe lookup: found or not found, never multiple."""
        self.lookups += 1
        return self.entries.get(mailbox & RVMA_ADDR_MASK)

    def remove(self, mailbox: int) -> None:
        entry = self.entries.pop(mailbox & RVMA_ADDR_MASK, None)
        if entry is not None and entry.active is not None and not entry.counter_spilled:
            self.counters_in_use -= 1

    def set_catch_all(self, entry: Optional[MailboxEntry]) -> None:
        """Install a catch-all bucket for unmatched mailboxes (paper §III-C)."""
        self.catch_all = entry

    # --- buffer/bucket management ---------------------------------------------------

    def post(self, entry: MailboxEntry, buffer: PostedBuffer) -> None:
        """Append a buffer to the bucket; activates it if the bucket was empty."""
        was_empty = not entry.queue
        entry.queue.append(buffer)
        if was_empty:
            self._activate(entry, buffer)

    def _activate(self, entry: MailboxEntry, buffer: PostedBuffer) -> None:
        buffer.epoch = entry.epoch
        if self.counters_in_use < self.max_counters:
            self.counters_in_use += 1
            entry.counter_spilled = False
        else:
            entry.counter_spilled = True
            self.spill_events += 1

    def retire_active(self, entry: MailboxEntry) -> RetiredBuffer:
        """Complete the active buffer: record it, advance the epoch,
        activate the next buffer in the bucket."""
        buf = entry.queue.pop(0)
        buf.completed = True
        if not entry.counter_spilled:
            self.counters_in_use -= 1
        record = RetiredBuffer(
            head_addr=buf.buffer.addr,
            length=buf.bytes_received,
            epoch=entry.epoch,
            buffer=buf,
        )
        entry.retired.append(record)
        while len(entry.retired) > self.retain_epochs:
            del entry.retired[0]
        entry.epoch += 1
        if entry.queue:
            self._activate(entry, entry.queue[0])
        return record

    def rewind(self, entry: MailboxEntry, epochs_back: int = 1) -> Optional[RetiredBuffer]:
        """Fetch the retired-buffer record *epochs_back* completions ago."""
        if epochs_back < 1 or epochs_back > len(entry.retired):
            return None
        return entry.retired[-epochs_back]

    # --- accounting ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        """On-NIC table footprint: 24 B/entry (mailbox, head, completion
        pointer — paper §IV-A) plus 8 B per live counter."""
        return 24 * len(self.entries) + 8 * self.counters_in_use
