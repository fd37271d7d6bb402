"""Unit tests for the timing models, experiment drivers and reporting."""

import pytest

from repro.experiments.report import ExperimentResult, format_table
from repro.network.routing import RoutingMode
from repro.rdma.completion_modes import CompletionMode
from repro.timing import (
    FIG45_SIZES,
    TESTBEDS,
    UCX_CX5_THUNDERX2,
    VERBS_OPA_SKYLAKE,
    AmortizationPoint,
    amortization_analysis,
    clear_timing_caches,
    latency_sweep,
    measure_setup_ns,
    rdma_bandwidth,
    rdma_ucx_latency,
    rdma_verbs_latency,
    rvma_bandwidth,
    rvma_latency,
)


# --- calibration ---------------------------------------------------------------


def test_testbeds_registered():
    assert set(TESTBEDS) == {"opa100-skylake-verbs", "cx5-thunderx2-ucx"}
    assert FIG45_SIZES[0] == 2 and FIG45_SIZES[-1] == 65536


def test_testbed_nic_configs_carry_costs():
    tb = VERBS_OPA_SKYLAKE
    assert tb.rvma_nic_config().pcie is tb.pcie
    assert tb.rdma_nic_config().nic_proc == tb.nic_proc


# --- microbenchmarks --------------------------------------------------------------


def test_rvma_latency_monotone_in_size():
    lat = [rvma_latency(VERBS_OPA_SKYLAKE, s, iterations=3, warmup=1)
           for s in (64, 4096, 65536)]
    assert lat[0] < lat[1] < lat[2]


def test_rdma_latency_exceeds_rvma_everywhere():
    for size in (2, 1024, 65536):
        rvma = rvma_latency(VERBS_OPA_SKYLAKE, size, iterations=3, warmup=1)
        rdma = rdma_verbs_latency(VERBS_OPA_SKYLAKE, size, iterations=3, warmup=1)
        assert rdma > rvma


def test_lastbyte_static_close_to_rvma():
    rvma = rvma_latency(VERBS_OPA_SKYLAKE, 64, routing=RoutingMode.STATIC,
                        iterations=3, warmup=1)
    lastbyte = rdma_verbs_latency(
        VERBS_OPA_SKYLAKE, 64, CompletionMode.LAST_BYTE_POLL,
        RoutingMode.STATIC, iterations=3, warmup=1,
    )
    assert abs(rvma - lastbyte) / lastbyte < 0.15  # "comparable" (paper)


def test_small_message_stream_rate_favours_rvma():
    rvma = rvma_bandwidth(VERBS_OPA_SKYLAKE, 64, n_messages=16, window=4)
    rdma = rdma_bandwidth(VERBS_OPA_SKYLAKE, 64, n_messages=16, window=4)
    assert rdma.n_messages == rvma.n_messages == 16
    # RDMA's ready/write/ack/signal cycle caps its rate well below RVMA's.
    assert rvma.msgs_per_us > 3 * rdma.msgs_per_us


def test_cleared_cache_recomputes_an_equal_result():
    first = rdma_bandwidth(VERBS_OPA_SKYLAKE, 64, n_messages=8, window=2)
    assert rdma_bandwidth(VERBS_OPA_SKYLAKE, 64, n_messages=8, window=2) is first
    clear_timing_caches()
    assert not rdma_bandwidth.cache
    fresh = rdma_bandwidth(VERBS_OPA_SKYLAKE, 64, n_messages=8, window=2)
    assert fresh is not first
    assert fresh == first


def test_ucx_latency_above_verbs_latency():
    verbs = rdma_verbs_latency(VERBS_OPA_SKYLAKE, 64, iterations=3, warmup=1)
    ucx = rdma_ucx_latency(UCX_CX5_THUNDERX2, 64, iterations=3, warmup=1)
    assert ucx > verbs


def test_ucx_lastbyte_requires_static():
    with pytest.raises(ValueError):
        rdma_ucx_latency(
            UCX_CX5_THUNDERX2, 64,
            routing=RoutingMode.ADAPTIVE, completion=CompletionMode.LAST_BYTE_POLL,
        )


def test_latency_sweep_reduction_positive_and_decreasing():
    pts = latency_sweep(VERBS_OPA_SKYLAKE, [2, 65536], iterations=3, warmup=1)
    assert all(p.reduction_pct > 0 for p in pts)
    assert pts[0].reduction_pct > pts[1].reduction_pct
    assert pts[0].speedup > 1.0


def test_latency_sweep_rejects_unknown_interface():
    with pytest.raises(ValueError):
        latency_sweep(VERBS_OPA_SKYLAKE, [64], interface="sockets")


# --- amortization -------------------------------------------------------------------


def test_setup_cost_positive_and_ucx_heavier():
    verbs = measure_setup_ns(UCX_CX5_THUNDERX2, 4096, "verbs")
    ucx = measure_setup_ns(UCX_CX5_THUNDERX2, 4096, "ucx")
    assert verbs > 1000
    assert ucx > verbs  # rkey pack/unpack on top


def test_amortization_point_formula():
    p = AmortizationPoint(size=64, setup_ns=9000.0, steady_ns=1000.0, tolerance=0.03)
    assert p.exchanges_needed == 300
    tight = AmortizationPoint(size=64, setup_ns=10.0, steady_ns=1000.0, tolerance=0.03)
    assert tight.exchanges_needed == 1  # floor at one exchange


def test_amortization_analysis_static_needs_more():
    out = amortization_analysis(UCX_CX5_THUNDERX2, [256], "ucx")
    static, adaptive = out["static"][0], out["adaptive"][0]
    assert static.steady_ns < adaptive.steady_ns
    assert static.exchanges_needed >= adaptive.exchanges_needed


# --- reporting -----------------------------------------------------------------------


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["bbbb", 22.5]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_experiment_result_markdown_includes_claims():
    r = ExperimentResult(
        name="figX",
        title="Demo",
        headers=["a"],
        rows=[[1]],
        summary={"speedup": 2.0},
        paper_claims={"speedup": 2.5},
    )
    md = r.to_markdown()
    assert "### figX: Demo" in md
    assert "| a |" in md
    assert "**speedup** = 2.00 (paper: 2.50)" in md
    assert "Demo" in r.to_text()


def test_experiment_result_large_numbers_formatted():
    r = ExperimentResult("f", "t", ["n"], [[123456.0]])
    assert "123,456" in r.to_text()
