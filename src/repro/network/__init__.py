"""Network substrate: messages, topologies, routing, switches, fabrics."""

from .config import LINK_RATES, NetworkConfig
from .fabric import BaseFabric, FlowFabric
from .message import (
    MTU,
    PACKET_HEADER_BYTES,
    Delivery,
    DeliveryInfo,
    Message,
    Packet,
)
from .routing import PathChoice, RoutingMode, choose_path
from .switch import PacketFabric, Switch
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
    "DeliveryInfo",
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
    "PathChoice",
    "RoutingMode",
    "Star",
    "Switch",
    "Topology",
    "TOPOLOGY_KINDS",
    "Torus3D",
    "choose_path",
    "make_topology",
]
