"""Wire-protocol headers interpreted by the NIC models.

Headers ride in :attr:`repro.network.message.Message.header` and tell
the receiving NIC what to do with the payload.  The split mirrors the
paper's Figure 1 vs Figure 3: RDMA headers carry raw remote addresses
and rkeys; RVMA headers carry only a mailbox virtual address and an
offset.

Every header is a plain slotted record (``@dataclass(slots=True)``),
not a frozen one: a frozen ``__init__`` sets each field through
``object.__setattr__``, and a header is built for nearly every message.
Nothing hashes or mutates a header once it is sent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

_op_ids = itertools.count(1)


def next_op_id() -> int:
    return next(_op_ids)


# --- RVMA -------------------------------------------------------------------


@dataclass(slots=True)
class RvmaPutHeader:
    """RVMA put: mailbox address + offset into the *active* buffer.

    No physical address, no rkey — the defining property of RVMA.
    """

    mailbox: int
    offset: int
    total_size: int
    op_id: int = field(default_factory=_op_ids.__next__)
    #: Simulator-side link to the initiator's :class:`repro.nic.rvma.PutOp`
    #: on every attempt (the first and each NACK retry), so a NACK can
    #: hand the put back to its initiator without a lookup table.  Not
    #: on the wire; active-mailbox replies carry None.
    op: object = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class RvmaGetHeader:
    """RVMA get: read ``length`` bytes at ``offset`` of the active buffer."""

    mailbox: int
    offset: int
    length: int
    op_id: int = field(default_factory=_op_ids.__next__)


@dataclass(slots=True)
class RvmaGetReply:
    op_id: int
    ok: bool


class NackReason(Enum):
    """Why a target NIC refused an RVMA put."""

    CLOSED = "closed"  # window closed (RVMA_Close_Win)
    NO_MAILBOX = "no_mailbox"  # mailbox never initialised
    NO_BUFFER = "no_buffer"  # bucket empty and no catch-all
    OUT_OF_BOUNDS = "out_of_bounds"  # offset+len exceeds active buffer
    # Tenant placement quota rejected the put.  Deliberately NOT in the
    # NIC's auto-retry set: hammering a metered mailbox on the NACK
    # timer is exactly the behaviour quotas exist to stop — recovery is
    # the client's backoff/deadline loop (services QoS layer).
    QUOTA = "quota"
    # An active-mailbox predicate filter (repro.nic.active) rejected the
    # payload.  Also not auto-retried: the same bytes would fail the
    # same predicate forever.
    FILTERED = "filtered"


@dataclass(slots=True)
class RvmaNackHeader:
    """Negative acknowledgement for a discarded RVMA operation.

    The paper allows NACKs to be disabled wholesale to resist DoS
    (§III-C); :class:`repro.nic.rvma.RvmaNicConfig.send_nacks` models that.
    """

    op_id: int
    mailbox: int
    reason: NackReason
    #: Simulator-side link to the refused put's
    #: :class:`repro.nic.rvma.PutOp`, taken from its header (None for a
    #: get or an unlinked put).  Not on the wire.
    op: object = field(default=None, compare=False, repr=False)


# --- reliability envelope -----------------------------------------------------
#
# The reliability transport (:mod:`repro.reliability.transport`) wraps
# application headers in a sequence-numbered envelope so a lossy fabric
# (fault injection: drops, flaps, partitions) can be survived by
# timeout-driven retransmission.  The envelope is protocol-agnostic: it
# carries RVMA and RDMA headers alike.


@dataclass(slots=True)
class SeqHeader:
    """Reliable-delivery envelope around an application header.

    ``flow`` discriminates independent sequence spaces between one
    (src, dst) NIC pair — the target mailbox for RVMA traffic, 0 for
    everything else — so per-(src, dst, mailbox) ordering/dedup state
    stays small and a hot mailbox cannot head-of-line-block another.
    """

    flow: int
    seq: int  # per-(src, dst, flow), starting at 1
    inner: object  # the wrapped application header
    attempt: int = 0  # retransmission attempt (0 = first transmission)


@dataclass(slots=True)
class ReliAckHeader:
    """Cumulative + selective acknowledgement for one flow.

    ``cum`` acknowledges every sequence number <= cum; ``sacks`` lists
    out-of-order sequence numbers received beyond it (capped), so a
    single lost message does not force retransmission of its successors.
    """

    flow: int
    cum: int
    sacks: tuple = ()


@dataclass(slots=True)
class HeartbeatHeader:
    """Failure-detector probe.  ``ping`` requests an immediate ``pong``."""

    kind: str  # "ping" | "pong"
    seq: int


# --- crash-restart rejoin ------------------------------------------------------
#
# After a crash-restart (:meth:`repro.nic.base.BaseNic.crash` +
# ``restart``) the node's recovery agent re-registers its mailboxes from
# the host-side journal/checkpoint and then negotiates a consistent
# resume point with every peer.  Both headers ride *inside* the
# reliability envelope, so the rejoin handshake itself survives a lossy
# fabric.


@dataclass(slots=True)
class RejoinHello:
    """Restarted node -> peer: "here is what I still know".

    ``rx_cums`` maps this node's receive flows *from the peer* to the
    restored cumulative sequence number — the peer must replay its send
    journal beyond each.  ``epochs`` maps restored mailbox -> epoch (the
    globally consistent epoch negotiation input; diagnostics/rewind).
    """

    node: int
    incarnation: int
    rx_cums: tuple  # ((flow, cum), ...) for flows peer -> this node
    epochs: tuple = ()  # ((mailbox, epoch), ...) restored local windows


@dataclass(slots=True)
class RejoinReply:
    """Peer -> restarted node: "here is what I have from you".

    ``rx_cums`` maps the peer's receive flows *from the restarted node*
    to its cumulative sequence number; the restarted node replays its
    own journal beyond each so nothing it sent pre-crash is lost.
    """

    node: int
    incarnation: int
    rx_cums: tuple  # ((flow, cum), ...) for flows this node -> peer


# --- RDMA --------------------------------------------------------------------


@dataclass(slots=True)
class RdmaWriteHeader:
    """RDMA write/put: raw target virtual address + protection key."""

    raddr: int
    rkey: int
    total_size: int
    imm: int | None = None  # write-with-immediate payload (target CQE)
    op_id: int = field(default_factory=_op_ids.__next__)


@dataclass(slots=True)
class RdmaReadHeader:
    """RDMA read/get request."""

    raddr: int
    rkey: int
    length: int
    op_id: int = field(default_factory=_op_ids.__next__)


@dataclass(slots=True)
class RdmaReadReply:
    op_id: int
    ok: bool


@dataclass(slots=True)
class RdmaSendHeader:
    """Two-sided send; consumes a posted receive at the target."""

    total_size: int
    tag: int = 0
    op_id: int = field(default_factory=_op_ids.__next__)


@dataclass(slots=True)
class AckHeader:
    """Transport-level acknowledgement (RC semantics, coalesced per op)."""

    op_id: int
    ok: bool = True


#: Wire size of control-only messages (acks, NACKs, read requests).
CONTROL_BYTES = 16
