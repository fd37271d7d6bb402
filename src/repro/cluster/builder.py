"""Cluster builder: topology + fabric + nodes in one call.

This is the top-level composition a user starts from::

    cluster = Cluster.build(n_nodes=64, topology="dragonfly",
                            nic_type="rvma", fidelity="flow")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..network.config import NetworkConfig
from ..network.fabric import BaseFabric, FlowFabric
from ..network.switch import PacketFabric
from ..network.topology import Topology, make_topology
from ..nic.rdma import RdmaNicConfig
from ..nic.rvma import RvmaNicConfig
from ..sim.engine import Simulator
from .node import Node

FIDELITIES = ("flow", "packet")


@dataclass
class Cluster:
    """A complete simulated system."""

    sim: Simulator
    topology: Topology
    fabric: BaseFabric
    nodes: list[Node]
    nic_type: str

    @classmethod
    def build(
        cls,
        n_nodes: int,
        topology: Union[str, Topology] = "dragonfly",
        nic_type: str = "rvma",
        fidelity: str = "flow",
        net_config: Optional[NetworkConfig] = None,
        nic_config: Optional[Union[RvmaNicConfig, RdmaNicConfig]] = None,
        seed: int = 0xC0FFEE,
        sim: Optional[Simulator] = None,
    ) -> "Cluster":
        """Construct a cluster.

        Parameters mirror the paper's experiment axes: node count,
        topology kind, protocol (``nic_type``), network parameters
        (link rate, routing mode) via *net_config*, and simulation
        fidelity (``packet`` for small-scale validation, ``flow`` for
        the 8,192-node motif runs).
        """
        if fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}")
        sim = sim or Simulator(seed=seed)
        topo = (
            topology
            if isinstance(topology, Topology)
            else make_topology(topology, n_nodes)
        )
        if topo.n_nodes != n_nodes:
            raise ValueError(
                f"topology sized for {topo.n_nodes} nodes, requested {n_nodes}"
            )
        fabric: BaseFabric
        if fidelity == "flow":
            fabric = FlowFabric(sim, topo, net_config)
        else:
            fabric = PacketFabric(sim, topo, net_config)
        nodes = [Node(sim, i, fabric, nic_type, nic_config) for i in range(n_nodes)]
        return cls(sim=sim, topology=topo, fabric=fabric, nodes=nodes, nic_type=nic_type)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, i: int) -> Node:
        """The i-th node of the cluster."""
        return self.nodes[i]

    def run(self, until: Optional[float] = None) -> float:
        """Run the cluster's simulator (to quiescence or ``until``)."""
        return self.sim.run(until=until)
