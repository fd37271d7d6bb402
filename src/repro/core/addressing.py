"""RVMA destination addressing (paper §III-C, initiator-side API).

``RVMA_Put`` sends "to a physical or logical network address for a node
and a virtual address (mailbox) on said node.  Physical and/or logical
addresses may include a network ID (NID) and process ID (PID) pair, if
remote process space targeting is desirable."

We model that: an :class:`RvmaAddress` names (nid, pid); the PID selects
a per-process slice of the node's 64-bit mailbox space, so co-located
processes can use identical application-level mailbox numbers without
colliding.  A bare ``int`` destination keeps meaning "node, PID 0".
"""

from __future__ import annotations

from _blake2 import blake2b
from dataclasses import dataclass

#: Bits of the mailbox space reserved for the PID prefix.
PID_SHIFT = 48
PID_MASK = 0xFFFF


def stable_hash64(data: bytes | str) -> int:
    """A stable 64-bit hash for mailbox selection (keys → shards).

    Services that spread a keyspace across mailboxes need a hash that
    is identical across processes and Python versions — ``hash()`` is
    salted per interpreter, so this uses blake2b.  The result indexes
    the mailbox space deterministically for any (key, shard count).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class RvmaAddress:
    """A (network id, process id) destination for RVMA operations."""

    nid: int
    pid: int = 0

    def __post_init__(self) -> None:
        if self.nid < 0:
            raise ValueError("nid must be non-negative")
        if not 0 <= self.pid <= PID_MASK:
            raise ValueError(f"pid must fit in 16 bits, got {self.pid}")

    def qualify(self, mailbox: int) -> int:
        """The node-global mailbox this (pid, mailbox) pair names."""
        return ((self.pid & PID_MASK) << PID_SHIFT) | (mailbox & ((1 << PID_SHIFT) - 1))


def resolve_destination(dst, mailbox: int) -> tuple[int, int]:
    """Normalise a destination into (node id, node-global mailbox).

    Accepts a bare node id (PID 0) or an :class:`RvmaAddress`.
    """
    if isinstance(dst, RvmaAddress):
        return dst.nid, dst.qualify(mailbox)
    return int(dst), mailbox & ((1 << 64) - 1)
