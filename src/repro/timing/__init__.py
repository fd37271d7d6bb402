"""Calibrated timing models and microbenchmarks (Figs 4-6)."""

from .amortization import (
    DEFAULT_TOLERANCE,
    AmortizationPoint,
    amortization_analysis,
    measure_setup_ns,
)
from .bandwidth import (
    BandwidthPoint,
    rdma_bandwidth,
    rvma_bandwidth,
)
from .cache import clear_timing_caches, memoize_timing
from .calibration import (
    FIG45_SIZES,
    TESTBEDS,
    Testbed,
    UCX_CX5_THUNDERX2,
    VERBS_OPA_SKYLAKE,
)
from .validation import ValidationCheck, report as validation_report, validate
from .microbench import (
    LatencyPoint,
    latency_sweep,
    rdma_ucx_latency,
    rdma_verbs_latency,
    rvma_latency,
)

__all__ = [
    "AmortizationPoint",
    "BandwidthPoint",
    "DEFAULT_TOLERANCE",
    "FIG45_SIZES",
    "LatencyPoint",
    "TESTBEDS",
    "Testbed",
    "UCX_CX5_THUNDERX2",
    "VERBS_OPA_SKYLAKE",
    "amortization_analysis",
    "clear_timing_caches",
    "latency_sweep",
    "memoize_timing",
    "measure_setup_ns",
    "rdma_bandwidth",
    "rvma_bandwidth",
    "rdma_ucx_latency",
    "rdma_verbs_latency",
    "rvma_latency",
    "ValidationCheck",
    "validate",
    "validation_report",
]
