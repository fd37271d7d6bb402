"""Fig 8 bench: RVMA vs RDMA on the Halo3D motif.

Shape checks against the paper: consistent but moderate RVMA wins
(~1.5-1.9x band, average 1.57x), growing with link rate, and strictly
smaller than the Sweep3D speedups (bandwidth- vs latency-bound).
"""

import os

import pytest

from repro.experiments.motif_sweep import run_fig7, run_fig8
from repro.network.routing import RoutingMode

N_NODES = int(os.environ.get("RVMA_BENCH_NODES", "64"))


@pytest.mark.benchmark(group="fig8")
def test_fig8_halo3d(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig8(
            n_nodes=N_NODES,
            topologies=("hyperx", "fattree"),
            rates=("100Gbps", "400Gbps", "2Tbps"),
            routings=(RoutingMode.STATIC, RoutingMode.ADAPTIVE),
            iterations=4,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())
    print(
        f"paper: avg 1.57x; HyperX DOR 1.64x @400G, 1.89x @2T; "
        f"measured avg {result.summary['avg_speedup']:.2f}x, "
        f"max {result.summary['max_speedup']:.2f}x at {result.summary['max_at']}"
    )

    speedups = {(r[0], r[1], r[2]): r[5] for r in result.rows}
    # RVMA wins consistently, in a moderate band (not sweep-like 4.4x);
    # the congested static fat-tree at 2 Tbps is the high outlier.
    assert all(1.05 <= s <= 3.3 for s in speedups.values())
    assert 1.2 <= result.summary["avg_speedup"] <= 2.3
    # The paper's HyperX-DOR trend: speedup grows with link rate.
    dor = [speedups[("hyperx", "static", r)] for r in ("100Gbps", "400Gbps", "2Tbps")]
    assert dor[2] > dor[0]


@pytest.mark.benchmark(group="fig8")
def test_halo_speedup_below_sweep_speedup(benchmark):
    """Cross-figure claim: Halo3D gains < Sweep3D gains."""

    def both():
        f7 = run_fig7(
            n_nodes=32, topologies=("dragonfly",), rates=("100Gbps",),
            routings=(RoutingMode.ADAPTIVE,), kb=4,
        )
        f8 = run_fig8(
            n_nodes=32, topologies=("dragonfly",), rates=("100Gbps",),
            routings=(RoutingMode.ADAPTIVE,), iterations=4,
        )
        return f7, f8

    f7, f8 = benchmark.pedantic(both, rounds=1, iterations=1)
    assert f8.summary["avg_speedup"] < f7.summary["avg_speedup"]
