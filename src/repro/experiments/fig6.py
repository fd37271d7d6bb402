"""Figure 6: UCX amortization analysis.

For each message size: the RDMA buffer-setup cost (Fig-1 handshake +
registration + rkey wireup), the steady-state exchange latency, and the
number of exchanges needed before setup is amortized to within the 3%
margin of error — for both static (last-byte) and adaptive (send/recv)
steady states.
"""

from __future__ import annotations

from ..timing.amortization import DEFAULT_TOLERANCE, amortization_analysis
from ..timing.calibration import UCX_CX5_THUNDERX2, Testbed
from .report import ExperimentResult

FIG6_SIZES = [2 ** k for k in range(4, 17, 2)]  # 16 B .. 64 KiB


def run_fig6(
    sizes: list[int] | None = None,
    testbed: Testbed = UCX_CX5_THUNDERX2,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ExperimentResult:
    """Fig 6: exchanges needed to amortize RDMA buffer setup over UCX."""
    sizes = sizes or FIG6_SIZES
    analysis = amortization_analysis(testbed, sizes, "ucx", tolerance)
    rows = []
    for stat, adap in zip(analysis["static"], analysis["adaptive"]):
        rows.append(
            [
                stat.size,
                round(stat.setup_ns),
                round(stat.steady_ns),
                stat.exchanges_needed,
                round(adap.steady_ns),
                adap.exchanges_needed,
            ]
        )
    max_static = max(p.exchanges_needed for p in analysis["static"])
    return ExperimentResult(
        name="fig6",
        title=f"UCX Amortization Analysis (tolerance {tolerance:.0%})",
        headers=[
            "size_B",
            "setup_ns",
            "static_steady_ns",
            "static_N",
            "adaptive_steady_ns",
            "adaptive_N",
        ],
        rows=rows,
        summary={
            "max_exchanges_needed": max_static,
            "testbed": testbed.name,
        },
        paper_claims={
            "observation": "a large number of exchanges is needed to amortize setup"
        },
    )
