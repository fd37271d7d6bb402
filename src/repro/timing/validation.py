"""Model validation against published reference points.

The paper validated its SST models "against performance results from
existing RDMA solutions".  We do the analogous thing: every headline
quantity our simulator produces for the calibrated testbeds must fall
inside ranges established by public measurements of comparable hardware
(OSU/perftest numbers for OmniPath and EDR InfiniBand, vendor switch
specs, PCIe specs).  `validate()` returns a structured report; a test
asserts every check passes, so recalibrating a constant that breaks
plausibility fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.routing import RoutingMode
from ..rdma.completion_modes import CompletionMode
from .bandwidth import rvma_bandwidth
from .calibration import UCX_CX5_THUNDERX2, VERBS_OPA_SKYLAKE
from .microbench import rdma_verbs_latency, rvma_latency


@dataclass(frozen=True)
class ValidationCheck:
    """One plausibility constraint on a simulated quantity."""

    name: str
    reference: str  # where the plausible range comes from
    lo: float
    hi: float
    measured: float

    @property
    def ok(self) -> bool:
        return self.lo <= self.measured <= self.hi


def validate() -> list[ValidationCheck]:
    """Run every plausibility check; returns the full report."""
    checks: list[ValidationCheck] = []

    # --- small-message one-way latency, OPA/Skylake class -----------------
    # Public OmniPath MPI/PSM2 one-way latencies sit around 0.8-1.2 us;
    # a bare put with lightweight completion should land just under.
    lat_small = rvma_latency(VERBS_OPA_SKYLAKE, 8)
    checks.append(ValidationCheck(
        "opa_small_put_one_way_ns",
        "OmniPath PSM2/verbs published ~0.8-1.2us one-way",
        600.0, 1300.0, lat_small,
    ))

    # Statically-routed RDMA with last-byte polling: the fast path the
    # field actually measures; must agree with the same band.
    lat_lastbyte = rdma_verbs_latency(
        VERBS_OPA_SKYLAKE, 8, CompletionMode.LAST_BYTE_POLL, RoutingMode.STATIC
    )
    checks.append(ValidationCheck(
        "opa_lastbyte_write_one_way_ns",
        "perftest ib_write_lat-class results",
        600.0, 1300.0, lat_lastbyte,
    ))

    # The two fast paths must be within ~15% of each other (the paper's
    # "comparable" claim is meaningless if our model biases either way).
    checks.append(ValidationCheck(
        "rvma_vs_lastbyte_ratio",
        "paper §V-A1: RVMA comparable to statically-routed RDMA",
        0.85, 1.15, lat_small / lat_lastbyte,
    ))

    # --- large-message bandwidth ------------------------------------------------
    # 100 Gbps links: streamed large transfers reach >=90% of line rate
    # (12.5 B/ns) in vendor benchmarks.
    bw = rvma_bandwidth(VERBS_OPA_SKYLAKE, 512 * 1024, n_messages=16)
    checks.append(ValidationCheck(
        "opa_large_stream_bytes_per_ns",
        "100Gbps line rate, >=90% achievable (vendor ib_write_bw)",
        11.25, 12.5, bw.bytes_per_ns,
    ))

    # --- serialization sanity ----------------------------------------------------
    # A 64 KiB put at 100 Gbps must be dominated by ~5.3 us of wire
    # serialization; total one-way within [ser, ser + 3us overheads].
    ser = 65536 / VERBS_OPA_SKYLAKE.net.link_bw
    lat_big = rvma_latency(VERBS_OPA_SKYLAKE, 65536)
    checks.append(ValidationCheck(
        "opa_64k_put_vs_serialization_ns",
        "wire-serialization lower bound",
        ser, ser + 3000.0, lat_big,
    ))

    # --- ThunderX2/UCX class -------------------------------------------------------
    # Published UCX/MPI latencies on ThunderX2+EDR run ~1.2-2.5 us.
    lat_tx2 = rvma_latency(UCX_CX5_THUNDERX2, 8)
    checks.append(ValidationCheck(
        "tx2_small_put_one_way_ns",
        "ThunderX2 + EDR published UCX/MPI one-way band",
        1000.0, 2500.0, lat_tx2,
    ))

    # --- structural invariants -------------------------------------------------------
    # RDMA spec-compliant completion must cost MORE than the raw put on
    # the same testbed (it adds an ack fence + a message) but less than
    # 5x (sanity against double-charging).
    lat_rdma = rdma_verbs_latency(VERBS_OPA_SKYLAKE, 8)
    checks.append(ValidationCheck(
        "rdma_sendrecv_overhead_ratio",
        "structure: ack fence + 1 extra message on top of the put",
        1.5, 5.0, lat_rdma / lat_small,
    ))
    return checks


def report() -> str:
    """Human-readable validation report."""
    lines = ["model validation against published reference points:"]
    for c in validate():
        flag = "ok " if c.ok else "FAIL"
        lines.append(
            f"  [{flag}] {c.name}: {c.measured:.1f} in [{c.lo:.1f}, {c.hi:.1f}]"
            f"  ({c.reference})"
        )
    return "\n".join(lines)
