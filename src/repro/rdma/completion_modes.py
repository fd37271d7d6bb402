"""Target-side completion detection strategies for RDMA (paper §II, §V-A).

RDMA itself gives the target no completion signal, so deployments use:

* ``LAST_BYTE_POLL`` — poll the final byte of the landing buffer.  Fast,
  but **only correct when the network writes bytes in order** (static
  routing); on an adaptively routed network the last byte can land
  first, signalling completion over a still-hole-ridden buffer.  This
  also technically violates the InfiniBand spec (paper §IV-D).
* ``SEND_RECV`` — the spec-compliant scheme: after the write is acked,
  the initiator issues a small send; the target's recv CQE marks
  completion.  Required on adaptive networks; costs an ack fence plus a
  full extra message (the overhead Figs 4-5 quantify).
* ``WRITE_IMM`` — write-with-immediate generates a target CQE but only
  carries small payloads (< 64 B), so it cannot replace SEND_RECV for
  real transfers.
"""

from __future__ import annotations

from enum import Enum

from ..network.routing import RoutingMode


class CompletionMode(Enum):
    """How an RDMA target detects that a transfer has landed."""

    LAST_BYTE_POLL = "last_byte_poll"
    SEND_RECV = "send_recv"
    WRITE_IMM = "write_imm"


class UnsafeCompletionError(RuntimeError):
    """Raised when a completion mode is invalid for the routing mode."""


def check_mode_safety(mode: CompletionMode, routing: RoutingMode, allow_unsafe: bool = False) -> None:
    """LAST_BYTE_POLL on an adaptive network corrupts data; refuse it
    unless the caller explicitly opts into demonstrating the failure."""
    if (
        mode is CompletionMode.LAST_BYTE_POLL
        and not routing.ordered
        and not allow_unsafe
    ):
        raise UnsafeCompletionError(
            "last-byte polling requires byte-ordered delivery; adaptive routing "
            "reorders packets (pass allow_unsafe=True only to demonstrate the bug)"
        )


def spec_compliant_mode(routing: RoutingMode) -> CompletionMode:
    """What a correct deployment must use for bulk transfers."""
    return CompletionMode.SEND_RECV
