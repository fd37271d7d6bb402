"""Fig 4 bench: RVMA vs RDMA one-way latency over Verbs.

Regenerates the paper's Fig 4 series (OmniPath/Skylake model) and
checks its shape: RVMA wins everywhere, the reduction peaks at small
messages in the paper's 55-70% band, and decays with size.
"""

import pytest

from repro.experiments.fig45 import run_fig4

SIZES = [2 ** k for k in range(1, 17)]


@pytest.mark.benchmark(group="fig4")
def test_fig4_verbs_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig4(sizes=SIZES), rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    print(f"paper claim: up to 65.8% reduction; "
          f"measured max {result.summary['max_reduction_pct']:.1f}%")

    reductions = {row[0]: row[3] for row in result.rows}
    # RVMA wins at every size.
    assert all(r > 0 for r in reductions.values())
    # Peak reduction lands in the paper's band and at a small size.
    assert 55.0 <= result.summary["max_reduction_pct"] <= 70.0
    assert result.summary["max_reduction_at_B"] <= 64
    # Reduction decays as serialization dominates (shape of Fig 4).
    assert reductions[2] > reductions[4096] > reductions[65536]
