"""Integration: trace replay as an A/B instrument over identical load.

The differential story the tentpole promises: replaying one committed
exemplar under QoS on/off and active-mailboxes on/off offers *exactly*
the same load to every cell (same rows, zero drops), per-key
linearizability holds in every cell, and the documented contrasts —
QoS isolates the victim tenant, the NIC serve path cuts host
dispatches and hot-GET latency — emerge from the toggles alone.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.trace_replay import (
    build_exemplar,
    compare_trace,
    record_trace,
    replay_trace,
)
from repro.scenarios.generator import generate
from repro.scenarios.runner import run_scenario
from repro.services import WorkloadConfig
from repro.workloads import EXEMPLAR_NAMES, Trace, load_exemplar


# ------------------------------------------------------------------ exemplars


def test_exemplars_replay_clean():
    for name in EXEMPLAR_NAMES:
        cell = replay_trace(load_exemplar(name), seed=1)
        assert cell.invariants_ok, (name, cell.error, cell.safety_failures)
        assert cell.stats.ops_dropped == 0


def test_exemplar_recipes_reproduce_committed_bytes():
    # `trace record --exemplar NAME` must regenerate the committed file
    # byte for byte — the recipes and the corpus cannot drift apart.
    for name in EXEMPLAR_NAMES:
        assert build_exemplar(name).to_jsonl() == load_exemplar(name).to_jsonl()


def test_record_roundtrip_replays_identically(tmp_path):
    trace, stats = record_trace(
        seed=5,
        workload=WorkloadConfig(
            n_ops=60, n_keys=24, mode="open", mean_interarrival_ns=2500.0,
            rng_stream="kv-trace-int",
        ),
    )
    assert stats.ops_issued >= trace.n_ops
    path = tmp_path / "t.jsonl"
    trace.save(path)
    loaded = Trace.load(str(path))
    a = replay_trace(trace, seed=2)
    b = replay_trace(loaded, seed=2)
    assert a.invariants_ok and b.invariants_ok
    assert a.outcome_digest == b.outcome_digest


# ----------------------------------------------------------------- differential


def test_flash_crowd_differential_contrasts():
    trace = load_exemplar("flash-crowd")
    out = compare_trace(trace, seed=1)
    # Identical offered load in every cell: every row offered, none
    # dropped, in all three cells.
    assert out.offered_identical
    # Per-key linearizability + liveness + integrity, per cell.
    assert out.base.invariants_ok, (out.base.error, out.base.safety_failures)
    assert out.qos_on.invariants_ok, (out.qos_on.error, out.qos_on.safety_failures)
    assert out.active_on.invariants_ok
    # QoS isolation: the aggressor is shed, the victim is not, and the
    # victim's tail improves relative to the FIFO base cell.
    assert out.qos_contrast_ok
    victim = out.victim
    assert out.qos_on.tenant_shed[victim] == 0
    assert sum(out.qos_on.tenant_shed[t] for t in out.aggressors) > 0
    assert out.qos_on.tenant_p99_ns[victim] < out.base.tenant_p99_ns[victim]
    # Active mailboxes: NIC serves hot GETs, saving host dispatches and
    # cutting p99 on the same offered load.
    assert out.active_contrast_ok
    assert out.active_on.served > 0
    assert out.dispatch_saving >= out.active_on.served
    assert out.active_on.p99_ns < out.base.p99_ns
    # The toggles change outcomes (sheds, NIC serves), never offered
    # rows — digests differ precisely because policy differs.
    assert out.base.outcome_digest != out.qos_on.outcome_digest


def test_steady_mix_toggles_keep_invariants():
    trace = load_exemplar("steady-mix")
    for qos in (False, True):
        for active in (False, True):
            cell = replay_trace(trace, seed=1, qos=qos, active=active)
            assert cell.invariants_ok, (qos, active, cell.error, cell.safety_failures)


# ------------------------------------------------------------- fuzzer workload


def test_trace_scenarios_generate_and_run():
    found = None
    for seed in range(1, 200):
        s = generate(seed)
        if s.workload_kind == "trace":
            found = s
            break
    assert found is not None, "no trace scenario in the first 200 seeds"
    assert found.workload["trace_ref"] in EXEMPLAR_NAMES
    out = run_scenario(found)
    assert not out.failed, out.fingerprint.describe()
    assert out.run_report is not None
    assert out.run_report.meta["workload"] == "trace"


# ------------------------------------------------------------------- CLI smoke


def test_cli_info_and_replay(capsys):
    rc = main(["trace", "info", "steady-mix"])
    assert rc == 0
    assert "exemplar:steady-mix" in capsys.readouterr().out
    rc = main(["trace", "replay", "steady-mix", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "invariants: ok" in out


def test_cli_record_transform_compare(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    rc = main(["trace", "record", "--seed", "9", "--ops", "40", "--out", str(raw)])
    assert rc == 0
    shaped = tmp_path / "shaped.jsonl"
    rc = main([
        "trace", "transform", str(raw), "--out", str(shaped),
        "--time-scale", "2.0", "--amplify", "2.0",
    ])
    assert rc == 0
    trace = Trace.load(str(shaped))
    assert trace.n_ops == Trace.load(str(raw)).n_ops
    assert trace.provenance["transforms"]
    report = tmp_path / "cmp.json"
    rc = main([
        "trace", "compare", "flash-crowd", "--seed", "1", "--report-out", str(report),
    ])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["meta"]["harness"] == "trace-compare"
