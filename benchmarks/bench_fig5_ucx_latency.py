"""Fig 5 bench: RVMA vs RDMA one-way latency over UCX.

Regenerates Fig 5 (ConnectX-5 EDR / ThunderX2 model).  The paper's
observation to reproduce: the RVMA saving is real but a smaller
fraction than over raw Verbs (45.8% vs 65.8%) because UCX's software
path inflates both sides.
"""

import pytest

from repro.experiments.fig45 import run_fig4, run_fig5

SIZES = [2 ** k for k in range(1, 17)]


@pytest.mark.benchmark(group="fig5")
def test_fig5_ucx_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig5(sizes=SIZES), rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    print(f"paper claim: 45.8% reduction; "
          f"measured max {result.summary['max_reduction_pct']:.1f}%")

    reductions = {row[0]: row[3] for row in result.rows}
    assert all(r > 0 for r in reductions.values())
    # The paper's UCX band.
    assert 38.0 <= result.summary["max_reduction_pct"] <= 52.0
    assert reductions[2] > reductions[65536]


@pytest.mark.benchmark(group="fig5")
def test_fig5_reduction_below_fig4(benchmark):
    """Cross-figure claim: UCX reduction < Verbs reduction."""
    small = [2, 64]

    def both():
        return run_fig4(sizes=small), run_fig5(sizes=small)

    fig4, fig5 = benchmark.pedantic(both, rounds=1, iterations=1)
    assert (
        fig5.summary["max_reduction_pct"] < fig4.summary["max_reduction_pct"]
    ), "UCX reduction should be a smaller fraction than Verbs (paper §V-A2)"
