"""Ablation benches for the design choices DESIGN.md calls out.

A1 LUT counter spill, A2 completion wakeup mechanism, A3 threshold
type parity, A4 PCIe generation sweep — each regenerating its table
and asserting the paper-implied ordering.
"""

import pytest

from repro.experiments.ablations import (
    run_ablation_completion,
    run_ablation_lut,
    run_ablation_pcie,
    run_ablation_threshold,
)


@pytest.mark.benchmark(group="ablations")
def test_ablation_lut_spill(benchmark):
    result = benchmark.pedantic(run_ablation_lut, rounds=1, iterations=1)
    print()
    print(result.to_text())
    penalties = {row[0]: row[3] for row in result.rows}
    # Spilling counters to host memory costs a PCIe round trip today...
    assert penalties["gen4"] > 300.0
    # ...but is minimal on Gen6 (the paper's §III-B forecast).
    assert penalties["gen6"] < 50.0
    assert penalties["gen6"] < penalties["gen4"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_completion_mechanisms(benchmark):
    result = benchmark.pedantic(run_ablation_completion, rounds=1, iterations=1)
    print()
    print(result.to_text())
    lat = {row[0]: row[1] for row in result.rows}
    # MWait <= poll <= shared-CQ poll (paper §IV-C ordering).
    assert lat["mwait"] <= lat["poll"] <= lat["cq_poll"]
    assert lat["cq_poll"] - lat["mwait"] > 10.0


@pytest.mark.benchmark(group="ablations")
def test_ablation_threshold_type_parity(benchmark):
    result = benchmark.pedantic(run_ablation_threshold, rounds=1, iterations=1)
    print()
    print(result.to_text())
    # EPOCH_BYTES and EPOCH_OPS complete identically for single-put
    # epochs: cost difference is sub-nanosecond in the model.
    assert result.summary["bytes_vs_ops_delta_ns"] < 1.0


@pytest.mark.benchmark(group="ablations")
def test_ablation_pcie_generations(benchmark):
    result = benchmark.pedantic(run_ablation_pcie, rounds=1, iterations=1)
    print()
    print(result.to_text())
    lats = [row[2] for row in result.rows]  # gen3 .. gen6 order
    # End-to-end latency strictly improves with newer PCIe.
    assert all(a >= b for a, b in zip(lats, lats[1:]))
    # Gen3 -> Gen6 saves at least one bus traversal's worth.
    assert lats[0] - lats[-1] > 200.0


@pytest.mark.benchmark(group="ablations")
def test_ablation_write_imm_ceiling(benchmark):
    from repro.experiments.ablations import run_ablation_write_imm

    result = benchmark.pedantic(run_ablation_write_imm, rounds=1, iterations=1)
    print()
    print(result.to_text())
    by_size = {row[0]: row for row in result.rows}
    # Under the 64B ceiling, imm completion is within ~15% of RVMA...
    assert isinstance(by_size[64][2], int)
    assert by_size[64][2] < by_size[64][1] * 1.15
    # ...but cannot carry real transfers at all.
    assert by_size[256][2] == "n/a (>64B)"
    # The general mechanism (send/recv) is far slower at every size.
    assert all(row[3] > row[1] * 1.5 for row in result.rows)


@pytest.mark.benchmark(group="fault-tolerance")
def test_fault_recovery_rewind_vs_restart(benchmark):
    from repro.experiments.fault_recovery import run_fault_recovery

    result = benchmark.pedantic(run_fault_recovery, rounds=1, iterations=1)
    print()
    print(result.to_text())
    # Rewind preserves completed epochs: fewer steps replayed, faster
    # completion, and the recovered epoch is the last consistent one.
    assert result.summary["steps_saved"] > 0
    assert result.summary["speedup_from_rewind"] > 1.2
    assert result.summary["recovered_epoch"] == 14
