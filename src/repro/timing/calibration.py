"""Calibrated testbed models for the paper's real-world figures.

The paper measured two systems:

* **Fig 4 (Verbs)** — Intel OmniPath 100 Gbps on Skylake (Platinum 8160)
  nodes, native Verbs.
* **Figs 5-6 (UCX)** — Mellanox ConnectX-5 EDR 100 Gbps on Marvell
  ThunderX2 CN9975 nodes, UCX 1.9.0 (UCP layer).

We obviously have neither machine.  Following the paper's own
differential methodology (time the RDMA sequence, delete the operations
RVMA does not need), we model each testbed with cost constants anchored
to public perftest/OSU-class measurements of those parts: ~1 us-class
small-message put latency on OPA/Skylake, somewhat higher software
overheads on the ThunderX2's slower single-thread cores, and Gen3-era
PCIe.  Absolute numbers are approximations; the differential structure
(what RVMA removes) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.pcie import GEN3, PcieGen
from ..network.config import NetworkConfig
from ..network.routing import RoutingMode
from ..nic.rdma import RdmaNicConfig
from ..nic.rvma import RvmaNicConfig
from ..rdma.ucx import UcpCosts
from ..rdma.verbs import VerbsCosts
from ..units import gbps


@dataclass(frozen=True)
class Testbed:
    """One calibrated hardware/software stack for the microbenchmarks."""

    name: str
    description: str
    net: NetworkConfig
    pcie: PcieGen
    nic_proc: float
    issue_overhead: float
    verbs: VerbsCosts
    ucp: UcpCosts
    #: RVMA user-library per-call overhead (thin shim over the NIC).
    rvma_sw_overhead: float = 30.0

    def rvma_nic_config(self) -> RvmaNicConfig:
        return RvmaNicConfig(
            pcie=self.pcie, nic_proc=self.nic_proc, issue_overhead=self.issue_overhead
        )

    def rdma_nic_config(self) -> RdmaNicConfig:
        return RdmaNicConfig(
            pcie=self.pcie, nic_proc=self.nic_proc, issue_overhead=self.issue_overhead
        )


#: Fig 4 testbed: OmniPath 100G + Skylake, native Verbs.
VERBS_OPA_SKYLAKE = Testbed(
    name="opa100-skylake-verbs",
    description="Intel OmniPath 100Gbps, Xeon Platinum 8160, IB Verbs",
    net=NetworkConfig(
        link_bw=gbps(100),
        hop_latency=40.0,
        injection_latency=10.0,
        switch_latency=110.0,  # OPA Edge switch port-to-port
        routing=RoutingMode.STATIC,
    ),
    pcie=GEN3,
    nic_proc=30.0,
    issue_overhead=50.0,
    verbs=VerbsCosts(
        post_send=90.0,
        post_recv=70.0,
        poll_cq=45.0,
        reg_mr_base=1600.0,
        reg_mr_per_kb=55.0,
    ),
    ucp=UcpCosts(),  # unused on this testbed
    rvma_sw_overhead=30.0,
)

#: Figs 5-6 testbed: ConnectX-5 EDR + ThunderX2, UCX 1.9.0.  ARM cores
#: run the software paths ~1.5x slower than Skylake.
UCX_CX5_THUNDERX2 = Testbed(
    name="cx5-thunderx2-ucx",
    description="Mellanox ConnectX-5 EDR 100Gbps, ThunderX2 CN9975, UCX 1.9.0",
    net=NetworkConfig(
        link_bw=gbps(100),
        hop_latency=40.0,
        injection_latency=10.0,
        switch_latency=90.0,  # EDR Quantum switch port-to-port
        routing=RoutingMode.STATIC,
    ),
    pcie=GEN3,
    nic_proc=35.0,
    issue_overhead=75.0,
    verbs=VerbsCosts(
        post_send=140.0,
        post_recv=110.0,
        poll_cq=70.0,
        reg_mr_base=2400.0,
        reg_mr_per_kb=80.0,
    ),
    ucp=UcpCosts(
        put_nbi=240.0,
        flush=180.0,
        tag_send=290.0,
        tag_recv=320.0,
        progress=90.0,
        rkey_pack=1400.0,
        reg_mr_base=2400.0,
        reg_mr_per_kb=80.0,
    ),
    # The RVMA shim on this testbed is routed through the UCP dispatch
    # path (put_nbi-class dispatch + worker progress), matching how the
    # paper instrumented UCX operations and removed only what RVMA
    # does not need.
    rvma_sw_overhead=330.0,
)

TESTBEDS = {t.name: t for t in (VERBS_OPA_SKYLAKE, UCX_CX5_THUNDERX2)}

#: Message sizes swept in Figs 4-5 (2 B to 64 KiB, powers of two).
FIG45_SIZES = [2 ** k for k in range(1, 17)]
