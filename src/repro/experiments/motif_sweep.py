"""Figures 7 and 8: motif sweeps across topology x routing x link rate.

For every configuration the sweep runs the motif twice — once on an
RVMA cluster, once on an RDMA cluster with identical network/NIC cost
models — and reports the RDMA/RVMA speedup, the quantity the paper
plots.  The paper ran 8,192 nodes x 32 cores; node count here is a
parameter (64 by default for quick runs, 8192 reproduces the paper's
scale at flow fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Type

from ..cluster.builder import Cluster
from ..motifs.base import Motif
from ..motifs.halo3d import Halo3D
from ..motifs.sweep3d import Sweep3D
from ..motifs.transfer import RdmaProtocol, RvmaProtocol
from ..network.config import LINK_RATES, NetworkConfig
from ..network.routing import RoutingMode
from .report import ExperimentResult

DEFAULT_TOPOLOGIES = ("dragonfly", "fattree", "hyperx", "torus3d")
DEFAULT_RATES = ("100Gbps", "200Gbps", "400Gbps", "2Tbps")
DEFAULT_ROUTINGS = (RoutingMode.STATIC, RoutingMode.ADAPTIVE)

#: Per-message payload and per-step compute of the figures' motifs.
FIG7_MSG_BYTES = 2048
FIG7_COMPUTE_NS = 900.0
FIG8_MSG_BYTES = 96 * 1024
FIG8_COMPUTE_NS = 1000.0


@dataclass
class MotifComparison:
    """One configuration's RVMA-vs-RDMA outcome."""

    topology: str
    routing: str
    rate: str
    rvma_ns: float
    rdma_ns: float

    @property
    def speedup(self) -> float:
        return self.rdma_ns / self.rvma_ns


def _run_one(
    motif_cls: Type[Motif],
    nic_type: str,
    n_nodes: int,
    topology: str,
    routing: RoutingMode,
    link_bw: float,
    seed: int,
    motif_kwargs: dict,
) -> float:
    net = NetworkConfig(link_bw=link_bw, routing=routing)
    cluster = Cluster.build(
        n_nodes=n_nodes,
        topology=topology,
        nic_type=nic_type,
        fidelity="flow",
        net_config=net,
        seed=seed,
    )
    protocol = RvmaProtocol() if nic_type == "rvma" else RdmaProtocol()
    result = motif_cls(cluster, protocol, **motif_kwargs).run()
    return result.elapsed


def _grid(topologies: tuple, routings: tuple, rates: tuple):
    for topology in topologies:
        for routing in routings:
            for rate in rates:
                yield topology, routing, rate


def run_motif_sweep(
    motif_cls: Type[Motif],
    n_nodes: int = 64,
    topologies: tuple = DEFAULT_TOPOLOGIES,
    rates: tuple = DEFAULT_RATES,
    routings: tuple = DEFAULT_ROUTINGS,
    seed: int = 0xC0FFEE,
    jobs: int = 1,
    **motif_kwargs,
) -> list[MotifComparison]:
    """The full Fig 7/8 grid; returns one comparison per configuration.

    ``jobs > 1`` fans independent (configuration, protocol) simulations
    out over worker processes — each run is a self-contained simulator,
    so the grid parallelises perfectly (set ``jobs=os.cpu_count()`` for
    paper-scale sweeps).
    """
    cells = list(_grid(topologies, routings, rates))
    tasks = [
        (motif_cls, nic, n_nodes, topology, routing, LINK_RATES[rate], seed, motif_kwargs)
        for (topology, routing, rate) in cells
        for nic in ("rvma", "rdma")
    ]
    if jobs > 1:
        # Imported here so a serial sweep never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            elapsed = list(pool.map(_run_one_star, tasks))
    else:
        elapsed = [_run_one_star(t) for t in tasks]
    out = []
    for i, (topology, routing, rate) in enumerate(cells):
        out.append(
            MotifComparison(
                topology=topology,
                routing=routing.value,
                rate=rate,
                rvma_ns=elapsed[2 * i],
                rdma_ns=elapsed[2 * i + 1],
            )
        )
    return out


def _run_one_star(task: tuple) -> float:
    return _run_one(*task)


def _to_result(
    name: str,
    title: str,
    comparisons: list[MotifComparison],
    paper_claims: dict,
    n_nodes: int,
) -> ExperimentResult:
    rows = [
        [c.topology, c.routing, c.rate, round(c.rvma_ns), round(c.rdma_ns), c.speedup]
        for c in comparisons
    ]
    speedups = [c.speedup for c in comparisons]
    best = max(comparisons, key=lambda c: c.speedup)
    return ExperimentResult(
        name=name,
        title=title,
        headers=["topology", "routing", "link", "rvma_ns", "rdma_ns", "speedup_x"],
        rows=rows,
        summary={
            "avg_speedup": sum(speedups) / len(speedups),
            "max_speedup": best.speedup,
            "max_at": f"{best.topology}/{best.routing}/{best.rate}",
            "n_nodes": n_nodes,
        },
        paper_claims=paper_claims,
    )


def run_fig7(
    n_nodes: int = 64,
    topologies: tuple = DEFAULT_TOPOLOGIES,
    rates: tuple = DEFAULT_RATES,
    routings: tuple = DEFAULT_ROUTINGS,
    kb: int = 8,
    jobs: int = 1,
) -> ExperimentResult:
    """Fig 7: Sweep3D.  Paper: >=2x at contemporary rates, 4.4x at
    2 Tbps on an adaptively routed dragonfly, 3.56x average."""
    comps = run_motif_sweep(
        Sweep3D, n_nodes, topologies, rates, routings, jobs=jobs,
        kb=kb, msg_bytes=FIG7_MSG_BYTES, compute_ns=FIG7_COMPUTE_NS,
    )
    return _to_result(
        "fig7",
        f"RVMA vs RDMA using Sweep3D ({n_nodes} nodes)",
        comps,
        paper_claims={
            "avg_speedup": 3.56,
            "max_speedup": 4.4,
            "max_at": "dragonfly/adaptive/2Tbps",
        },
        n_nodes=n_nodes,
    )


def run_fig8(
    n_nodes: int = 64,
    topologies: tuple = DEFAULT_TOPOLOGIES,
    rates: tuple = DEFAULT_RATES,
    routings: tuple = DEFAULT_ROUTINGS,
    iterations: int = 10,
    jobs: int = 1,
) -> ExperimentResult:
    """Fig 8: Halo3D.  Paper: 1.57x average; HyperX DOR 1.64x at
    400 Gbps and 1.89x at 2 Tbps."""
    comps = run_motif_sweep(
        Halo3D, n_nodes, topologies, rates, routings, jobs=jobs,
        iterations=iterations, msg_bytes=FIG8_MSG_BYTES, compute_ns=FIG8_COMPUTE_NS,
    )
    return _to_result(
        "fig8",
        f"RVMA vs RDMA using Halo3D ({n_nodes} nodes)",
        comps,
        paper_claims={
            "avg_speedup": 1.57,
            "max_speedup": 1.89,
            "max_at": "hyperx/static(DOR)/2Tbps",
        },
        n_nodes=n_nodes,
    )
