"""Messages and packets carried by the network fabrics.

A :class:`Message` is one NIC-level operation's wire traffic (an RVMA
put, an RDMA write, a 1-byte completion send...).  The packet-fidelity
fabric fragments messages into :class:`Packet` objects of at most
``MTU`` payload bytes; the flow-fidelity fabric carries messages whole.

Messages carry *real payload bytes* plus an opaque ``header`` (protocol
object interpreted by the receiving NIC model).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

#: Maximum payload bytes per packet (InfiniBand-class 4 KiB MTU).
MTU = 4096

#: Wire overhead per packet: headers/CRC (IB ~ 30B LRH+BTH+ICRC+VCRC).
PACKET_HEADER_BYTES = 30

_msg_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """One network operation's traffic between a pair of NICs."""

    src: int
    dst: int
    size: int  # payload bytes
    header: Any = None  # protocol header interpreted by the receiving NIC
    data: bytes = b""  # actual payload contents ("" => size-only modelling)
    msg_id: int = field(default_factory=_msg_ids.__next__)
    send_time: float = -1.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("message size must be >= 0")
        if self.data and len(self.data) != self.size:
            raise ValueError(
                f"payload length {len(self.data)} != declared size {self.size}"
            )

    @property
    def wire_size(self) -> int:
        """Bytes on the wire including per-packet header overhead."""
        return self.size + self.num_packets * PACKET_HEADER_BYTES

    @property
    def num_packets(self) -> int:
        return max(1, -(-self.size // MTU))

    def fragment(self) -> list["Packet"]:
        """Split into MTU-sized packets, preserving payload slices.

        On the fabric hot path every message is fragmented exactly once,
        so the single-packet case short-circuits and the loop builds
        ``Packet`` records positionally.
        """
        size = self.size
        data = self.data
        if size <= MTU:
            return [Packet(self, 0, 0, max(size, 0), data or b"", True)]
        pkts: list[Packet] = []
        last = self.num_packets - 1
        for seq in range(last + 1):
            off = seq * MTU
            psize = MTU if off + MTU <= size else size - off
            pdata = data[off : off + psize] if data else b""
            pkts.append(Packet(self, seq, off, psize, pdata, seq == last))
        return pkts


@dataclass(slots=True)
class Packet:
    """One MTU-or-smaller fragment of a message."""

    message: Message
    seq: int
    offset: int
    size: int
    data: bytes = b""
    is_last: bool = False

    @property
    def wire_size(self) -> int:
        return self.size + PACKET_HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Packet msg={self.message.msg_id} seq={self.seq} "
            f"off={self.offset} size={self.size}>"
        )


@dataclass(slots=True)
class Delivery:
    """What a fabric hands the destination NIC: one arrival.

    ``packet is None`` means the whole message arrived at once (flow
    fidelity); otherwise exactly this fragment arrived (packet fidelity)
    and the NIC must place/count it individually.  The send time is the
    message's own (:attr:`Message.send_time`).
    """

    message: Message
    arrival_time: float
    hops: int
    path_index: int = 0  # which candidate path carried it (diagnostics)
    packet: Optional[Packet] = None

    @property
    def is_whole_message(self) -> bool:
        return self.packet is None
