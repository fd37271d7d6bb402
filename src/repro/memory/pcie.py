"""PCIe host-bus latency model.

The paper's simulations charge a 150 ns PCIe latency "meant to balance
bus latencies between PCIe Gen 4 and Gen 5" and note Gen 6 brings this
to tens of nanoseconds, which also makes host-memory counter spill
cheap (§III-B, §V-B).  We expose those generations so the LUT-spill
ablation (A1 in DESIGN.md) can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import gbps


@dataclass(frozen=True)
class PcieGen:
    """One PCIe generation: one-way latency and x16 bandwidth."""

    name: str
    #: One-way host<->NIC traversal latency in ns.
    latency: float
    #: Effective x16 data bandwidth in bytes/ns.
    bandwidth: float


#: "~200 ns today" (paper §III-B) — Gen3/4-class hardware.
GEN3 = PcieGen("gen3", 250.0, gbps(126.0))
GEN4 = PcieGen("gen4", 200.0, gbps(252.0))
GEN5 = PcieGen("gen5", 110.0, gbps(504.0))
#: "tens of ns" round trip for Gen 6+ (paper §III-B) => ~10 ns one way.
GEN6 = PcieGen("gen6", 10.0, gbps(1008.0))

#: The paper's simulation setting: 150 ns balancing Gen4 and Gen5 (§V-B).
PAPER_SIM = PcieGen("paper-sim", 150.0, gbps(504.0))

GENERATIONS = {g.name: g for g in (GEN3, GEN4, GEN5, GEN6, PAPER_SIM)}


class PcieBus:
    """Serializing host bus between CPU/memory and the NIC.

    For the experiments, PCIe matters as a per-transaction latency
    (doorbells, DMA setup, completion stores); the paper sizes host-bus
    bandwidth so it "is always sufficient to keep the NIC/link supplied
    with data at line rate" (§V-B), so we model bandwidth but default it
    high enough never to throttle.
    """

    def __init__(self, gen: PcieGen = PAPER_SIM) -> None:
        self.gen = gen
        self.transactions = 0

    @property
    def latency(self) -> float:
        return self.gen.latency

    def transaction_time(self, size_bytes: int = 0) -> float:
        """One-way time for a transaction carrying *size_bytes*."""
        self.transactions += 1
        return self.gen.latency + (size_bytes / self.gen.bandwidth if size_bytes else 0.0)

    def round_trip(self) -> float:
        """Posted request + completion, e.g. a host-memory counter update."""
        return 2.0 * self.gen.latency
