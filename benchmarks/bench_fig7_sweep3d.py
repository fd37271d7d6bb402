"""Fig 7 bench: RVMA vs RDMA on the Sweep3D motif.

Runs the topology x routing x link-rate grid at a benchmark-friendly
scale (the paper used 8,192 nodes; `rvma-experiments fig7
--paper-scale` reproduces that).  Shape checks against the paper:
RVMA wins everywhere, by >=2x at contemporary rates, more at 2 Tbps,
with the best case on the adaptively routed configurations.
"""

import os

import pytest

from repro.experiments.motif_sweep import run_fig7
from repro.network.routing import RoutingMode

N_NODES = int(os.environ.get("RVMA_BENCH_NODES", "64"))


@pytest.mark.benchmark(group="fig7")
def test_fig7_sweep3d(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig7(
            n_nodes=N_NODES,
            topologies=("dragonfly", "hyperx"),
            rates=("100Gbps", "2Tbps"),
            routings=(RoutingMode.STATIC, RoutingMode.ADAPTIVE),
            kb=4,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())
    print(
        f"paper: avg 3.56x, max 4.4x (dragonfly/adaptive/2Tbps); "
        f"measured avg {result.summary['avg_speedup']:.2f}x, "
        f"max {result.summary['max_speedup']:.2f}x at {result.summary['max_at']}"
    )

    speedups = {(r[0], r[1], r[2]): r[5] for r in result.rows}
    # RVMA wins every configuration, >=2x as the paper reports.
    assert all(s >= 2.0 for s in speedups.values())
    # Average in the paper's neighbourhood.
    assert 2.5 <= result.summary["avg_speedup"] <= 5.0
    # Faster links -> bigger speedup (the 4.4x-at-2Tbps effect).
    for topo in ("dragonfly", "hyperx"):
        for routing in ("static", "adaptive"):
            assert speedups[(topo, routing, "2Tbps")] > speedups[(topo, routing, "100Gbps")]
    # Headline case: adaptive dragonfly at 2 Tbps sits near the top.
    assert result.summary["max_speedup"] >= speedups[("dragonfly", "adaptive", "2Tbps")] * 0.99
