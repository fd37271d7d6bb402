"""Fig 6 bench: UCX amortization analysis.

Regenerates Fig 6: how many exchanges amortize the RDMA buffer-setup
handshake to within the 3% latency margin.  Shape checks: the count is
large (the paper's point), shrinks with message size, and the static
baseline needs more exchanges than the adaptive one (its steady-state
latency is lower, so 3% of it is a tighter bar).
"""

import pytest

from repro.experiments.fig6 import run_fig6

SIZES = [16, 256, 4096, 65536]


@pytest.mark.benchmark(group="fig6")
def test_fig6_amortization(benchmark):
    result = benchmark.pedantic(lambda: run_fig6(sizes=SIZES), rounds=1, iterations=1)
    print()
    print(result.to_text())

    # rows: size, setup, static_steady, static_N, adaptive_steady, adaptive_N
    static_n = {row[0]: row[3] for row in result.rows}
    adaptive_n = {row[0]: row[5] for row in result.rows}

    # "A large number of exchanges is needed" — hundreds at small sizes.
    assert static_n[16] > 100
    # Amortization gets easier as transfers grow.
    assert static_n[16] > static_n[65536]
    # Faster steady state (static / last-byte) is harder to amortize into.
    for size in SIZES:
        assert static_n[size] >= adaptive_n[size]
    # Setup itself is microseconds-scale (handshake + registration).
    assert all(row[1] > 5000 for row in result.rows)
