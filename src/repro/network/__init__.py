"""Network substrate: messages, topologies, routing, fabrics."""

from .config import LINK_RATES, NetworkConfig
from .fabric import BaseFabric, FlowFabric
from .message import (
    MTU,
    PACKET_HEADER_BYTES,
    Delivery,
    Message,
    Packet,
)
from .routing import RoutingMode
from .switch import PacketFabric
from .topology import (
    TOPOLOGY_KINDS,
    Dragonfly,
    FatTree,
    HyperX,
    Star,
    Topology,
    Torus3D,
    make_topology,
)

__all__ = [
    "BaseFabric",
    "Delivery",
    "Dragonfly",
    "FatTree",
    "FlowFabric",
    "HyperX",
    "LINK_RATES",
    "Message",
    "MTU",
    "NetworkConfig",
    "Packet",
    "PacketFabric",
    "PACKET_HEADER_BYTES",
    "RoutingMode",
    "Star",
    "Topology",
    "TOPOLOGY_KINDS",
    "Torus3D",
    "make_topology",
]
