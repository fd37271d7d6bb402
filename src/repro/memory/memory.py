"""Byte-accurate host memory for one node.

The simulator stores *real bytes*, not abstract tokens: data-integrity
assertions (e.g. "out-of-order packet delivery still reconstructs the
payload", "rewind recovers the previous epoch's contents") verify actual
memory contents.  Only written bytes take host memory: an allocation's
backing ends at the highest byte ever written to it, and every byte
never written reads as zero.

Memory is organized as a bump allocator over a flat 48-bit physical
space.  Reads and writes must fall inside a single allocation —
crossing allocations is a simulated wild pointer and raises
:class:`MemoryFault`.

Write *watchpoints* let other components observe stores to an address
range; the Monitor/MWait model and last-byte pollers are built on them.
"""

from __future__ import annotations

import bisect
from typing import Callable

from .address import CACHE_LINE, align_up


class MemoryFault(RuntimeError):
    """Access outside any allocation or crossing allocation bounds."""


class Allocation:
    """One contiguous allocation: [base, base+size) backed by a bytearray.

    The backing holds the allocation's bytes up to the highest byte
    ever written to it and nothing past that: it is None until the
    first write, and a read past its end returns zeros.  Size-only
    simulations (motifs at 8,192 nodes) never pay for payload bytes,
    and a receive buffer posted for the largest message backs only the
    bytes its puts placed.
    """

    __slots__ = ("base", "size", "_data", "label")

    def __init__(self, base: int, size: int, label: str = "") -> None:
        self.base = base
        self.size = size
        self._data: bytearray | None = None
        self.label = label

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        """Whether [addr, addr+length) falls inside this allocation."""
        return self.base <= addr and addr + length <= self.end

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Allocation {self.label or hex(self.base)} base={self.base:#x} size={self.size}>"


class NodeMemory:
    """Physical memory of a simulated node.

    Parameters
    ----------
    base:
        First allocatable physical address (kept non-zero so that 0 can
        serve as a null pointer in completion words).
    """

    def __init__(self, base: int = 0x1000) -> None:
        self._next = base
        self._bases: list[int] = []  # sorted allocation base addresses
        self._allocs: list[Allocation] = []  # parallel to _bases
        self._watchpoints: list[tuple[int, int, Callable[[int, bytes], None]]] = []
        self.bytes_written = 0
        self.bytes_read = 0
        #: last allocation hit by find() — NIC placement streams revisit
        #: the same buffer for thousands of consecutive accesses, so this
        #: turns the bisect into a bounds check on the hot path.
        self._last_hit: Allocation | None = None

    # --- allocation -----------------------------------------------------------

    def alloc(self, size: int, align: int = CACHE_LINE, label: str = "") -> Allocation:
        """Allocate *size* bytes aligned to *align*; returns the Allocation."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        base = align_up(self._next, align)
        alloc = Allocation(base, size, label)
        self._next = base + size
        self._bases.append(base)
        self._allocs.append(alloc)
        return alloc

    @property
    def allocation_count(self) -> int:
        """Allocations made so far; none is freed (addresses are never reused)."""
        return len(self._allocs)

    def find(self, addr: int, length: int = 1) -> Allocation:
        """Allocation containing [addr, addr+length), else MemoryFault."""
        a = self._last_hit
        if a is not None and a.base <= addr and addr + length <= a.base + a.size:
            return a
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            a = self._allocs[i]
            if a.contains(addr, length):
                self._last_hit = a
                return a
        raise MemoryFault(f"access [{addr:#x}, +{length}) hits no allocation")

    # --- access -----------------------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Store *data* at *addr*; fires any overlapping watchpoints."""
        if not data:
            return
        a = self.find(addr, len(data))
        off = addr - a.base
        buf = a._data
        if buf is None:
            buf = a._data = bytearray()
        gap = off - len(buf)
        if gap >= 0:
            if gap:
                buf += bytes(gap)  # never-written bytes before it read as 0
            buf += data
        else:
            # Grows the backing when the write runs past its end.
            buf[off : off + len(data)] = data
        self.bytes_written += len(data)
        self._fire_watchpoints(addr, data)

    def read(self, addr: int, length: int) -> bytes:
        """Load *length* bytes from *addr*; bytes never written read as 0."""
        if length <= 0:
            return b""
        a = self.find(addr, length)
        off = addr - a.base
        self.bytes_read += length
        buf = a._data
        if buf is None:
            return bytes(length)
        out = bytes(buf[off : off + length])
        if len(out) < length:
            out += bytes(length - len(out))
        return out

    def write_u64(self, addr: int, value: int) -> None:
        """Store a little-endian 64-bit word (completion pointers/lengths)."""
        self.write(addr, int(value).to_bytes(8, "little"))

    def read_u64(self, addr: int) -> int:
        """Load a little-endian 64-bit word."""
        return int.from_bytes(self.read(addr, 8), "little")

    def fill(self, addr: int, length: int, byte: int) -> None:
        """memset-style helper used by tests and fault injection."""
        self.write(addr, bytes([byte]) * length)

    # --- watchpoints ---------------------------------------------------------------

    def add_watchpoint(
        self, addr: int, length: int, callback: Callable[[int, bytes], None]
    ) -> tuple:
        """Invoke ``callback(addr, data)`` whenever a write overlaps the range.

        Returns a token for :meth:`remove_watchpoint`: the tuple
        ``(addr, length, callback)``.  Any equal tuple removes it too, so
        a callback can deregister itself without holding its own token
        (which would make it a reference cycle).
        """
        token = (addr, length, callback)
        self._watchpoints.append(token)
        return token

    def remove_watchpoint(self, token: tuple) -> None:
        """Deregister a watchpoint token (idempotent)."""
        try:
            self._watchpoints.remove(token)
        except ValueError:
            pass

    def _fire_watchpoints(self, addr: int, data: bytes) -> None:
        if not self._watchpoints:
            return
        end = addr + len(data)
        # Copy: callbacks may deregister themselves (one-shot MWait).
        for (w_addr, w_len, cb) in list(self._watchpoints):
            if addr < w_addr + w_len and w_addr < end:
                cb(addr, data)
