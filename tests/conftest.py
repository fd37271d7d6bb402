"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.network.config import NetworkConfig
from repro.network.routing import RoutingMode
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


@pytest.fixture(params=["fast", "plain"])
def fabric_impl(request, monkeypatch) -> str:
    """Run the test against both packet-fabric implementations.

    ``fast`` builds the production vectorized :class:`PacketFabric`;
    ``plain`` makes every ``Cluster.build`` the test performs use the
    per-packet :class:`tests.helpers.ReferencePacketFabric` oracle, so
    results must agree across the two legs.  Tests on flow-fidelity
    clusters never build a packet fabric: both legs run the same code
    and the pair only keeps the long-standing test ids.
    """
    if request.param == "plain":
        import repro.cluster.builder as builder

        from tests.helpers import ReferencePacketFabric

        monkeypatch.setattr(builder, "PacketFabric", ReferencePacketFabric)
    return request.param


@pytest.fixture
def rvma_pair() -> Cluster:
    """Two RVMA nodes on one switch, packet fidelity, adaptive routing."""
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.ADAPTIVE),
    )


@pytest.fixture
def rdma_pair() -> Cluster:
    """Two RDMA nodes on one switch, packet fidelity, adaptive routing."""
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rdma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.ADAPTIVE),
    )


@pytest.fixture
def rvma_cluster8() -> Cluster:
    """Eight RVMA nodes on a dragonfly, flow fidelity."""
    return Cluster.build(n_nodes=8, topology="dragonfly", nic_type="rvma", fidelity="flow")
