"""Routing policies: static (deterministic, ordered) vs adaptive.

The protocol-level consequence the paper hinges on: a **static** route
gives per-(src,dst) in-order, byte-ordered delivery, so RDMA's
last-byte-polling trick works; an **adaptive** network reorders packets
and messages, so RDMA needs a trailing send/recv for completion while
RVMA does not.

Route selection itself lives with the channel tables it scores:
:meth:`repro.network.fabric.BaseFabric._select_route`.
"""

from __future__ import annotations

from enum import Enum


class RoutingMode(Enum):
    """How paths are chosen at injection."""

    STATIC = "static"
    ADAPTIVE = "adaptive"

    @property
    def ordered(self) -> bool:
        """Does the network guarantee in-order (and byte-ordered) delivery?"""
        return self is RoutingMode.STATIC
