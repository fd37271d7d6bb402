"""Unit tests for packet-fabric switch internals and load-aware routing."""

import pytest

from repro.network import (
    MTU,
    NetworkConfig,
    PacketFabric,
    RoutingMode,
    make_topology,
)
from repro.sim import Simulator
from repro.units import gbps
from tests.helpers import ReferencePacketFabric


def test_crossbar_adds_traversal_latency():
    """Delivery through a switch includes pipeline + crossbar time."""
    sim = Simulator()
    cfg = NetworkConfig(
        link_bw=gbps(80), injection_latency=10.0, switch_latency=50.0,
        crossbar_factor=2.0,
    )
    fab = PacketFabric(sim, make_topology("star", 2), cfg)
    got = []
    fab.attach(1, got.append)
    fab.send(0, 1, 1000)
    sim.run()
    wire = 1000 + 30
    ser = wire / cfg.link_bw
    xbar = wire / cfg.crossbar_bw
    expect = (10.0 + ser) + (50.0 + xbar) + (10.0 + ser)
    assert got[0].arrival_time == pytest.approx(expect)


def test_switch_tracks_forwarded_packets_per_hop():
    sim = Simulator()
    topo = make_topology("fattree", 16)
    fab = PacketFabric(sim, topo, NetworkConfig(routing=RoutingMode.STATIC))
    fab.attach(15, lambda d: None)
    fab.send(0, 15, MTU * 2)  # 2 packets, 5-switch path
    sim.run()
    total_forwards = sum(sim.stats.instances("fabric.packets_forwarded").values())
    assert total_forwards == 2 * 5


def test_packet_mode_adaptive_is_load_aware():
    """With one candidate congested, adaptive injection prefers others."""
    sim = Simulator()
    topo = make_topology("fattree", 16)
    fab = ReferencePacketFabric(sim, topo, NetworkConfig(routing=RoutingMode.ADAPTIVE))
    fab.attach(15, lambda d: None)
    fab.attach(14, lambda d: None)
    # Congest the static path to 15 with background traffic.
    static = topo.static_path(topo.node_switch(0), topo.node_switch(15))
    for _ in range(4):
        fab.send(0, 15, MTU * 4, mode=RoutingMode.STATIC)
    # Now adaptive sends should mostly dodge the congested static path.
    choices = [fab.select_path(0, 15, RoutingMode.ADAPTIVE)[0] for _ in range(8)]
    dodged = sum(1 for p in choices if p != static)
    assert dodged >= 6


def test_routed_packet_hop_progression():
    sim = Simulator()
    fab = PacketFabric(sim, make_topology("star", 2))
    captured = []
    fab.attach(1, lambda d: captured.append(d))
    msg = fab.send(0, 1, 64)
    sim.run()
    assert captured[0].message is msg
    assert captured[0].hops == 1  # one switch on the star


def test_deliveries_share_message_object_across_fragments():
    sim = Simulator()
    fab = PacketFabric(sim, make_topology("star", 2))
    got = []
    fab.attach(1, got.append)
    fab.send(0, 1, MTU * 3)
    sim.run()
    messages = {id(d.message) for d in got}
    assert len(messages) == 1
    assert sorted(d.packet.seq for d in got) == [0, 1, 2]
