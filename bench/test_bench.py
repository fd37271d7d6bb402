"""Tests of the benchmark itself, at tiny workload sizes.

    python -m pytest bench -q
"""

from __future__ import annotations

import copy
import fnmatch
import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

run.use_checkout_src()

from attribution import LAYERS, attribute, layer_of  # noqa: E402
from compare import verdict_host, verdict_sim  # noqa: E402
from repro import Halo3D  # noqa: E402
from repro.services import LoadStats  # noqa: E402

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    KINDS, Repeat, kv_failures, kv_open, motif, motif_puts, trace_rows,
)

SPEC = run.load_json(run.ROOT / "BENCHMARK.json")
CONFIG = run.load_json(run.BENCH / "config.json")

#: Size overrides that make each workload run in well under a second.
TINY = {
    "halo3d-fig8": {"n_nodes": 8, "params": {"iterations": 1, "msg_bytes": 4096}},
    "sweep3d-fig7": {"n_nodes": 16, "params": {"kb": 1, "msg_bytes": 512, "compute_ns": 100.0}},
    "incast-pkt": {"n_nodes": 9, "params": {"msgs_per_client": 4, "msg_bytes": 4096}},
    "kv-get-closed": {"client_nodes": 2, "n_ops": 200},
    "kv-put-open": {"clients": 4, "rows_per_rung": 60, "rates_mops": [1.0, 2.0]},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_config() -> dict:
    config = copy.deepcopy(CONFIG)
    config.update(min_repeats=1)
    for name, overrides in TINY.items():
        config["workloads"][name]["size"].update(overrides)
    return config


def tiny(name: str):
    spec = tiny_config()["workloads"][name]
    return KINDS[spec["kind"]], spec["size"]


@pytest.fixture(scope="module")
def traced_docs():
    config = tiny_config()
    return {name: run.measure(name, 3, 0.0, True, config) for name in TINY}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(CONFIG["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_layer_map_covers_every_per_layer_metric():
    patterns = [p for row in CONFIG["layer_map"] for p in row["metrics"]]
    for m in SPEC["per_layer"]:
        assert any(fnmatch.fnmatchcase(m["name"], p) for p in patterns), m["name"]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_exactly_the_listed_metrics_with_units(name, trace, traced_docs, tmp_path):
    doc = dict(traced_docs[name][0], trace=trace)
    result = run.report(doc, None, SPEC, tmp_path)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert json.loads(json.dumps(result)) == result


#: (layers each workload runs, layers it must not run at all).
LAYER_USE = {
    "halo3d-fig8": (("sim", "network", "nic", "memory", "rdma", "motifs"),
                    ("reliability", "services", "workloads")),
    "sweep3d-fig7": (("sim", "network", "nic", "memory", "rdma", "motifs"),
                     ("reliability", "services", "workloads")),
    "incast-pkt": (("sim", "network", "nic", "memory", "motifs"),
                   ("reliability", "services", "workloads", "rdma")),
    "kv-get-closed": (("sim", "network", "nic", "reliability", "services"), ("rdma", "workloads")),
    "kv-put-open": (("sim", "network", "nic", "reliability", "services", "workloads"), ("rdma",)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_shares_sum_to_100_and_bypassed_layers_read_0(name, traced_docs):
    metrics = traced_docs[name][0]["metrics"]
    assert sum(metrics[f"host.{layer}.share"] for layer in LAYERS) == pytest.approx(100.0)
    used, bypassed = LAYER_USE[name]
    for layer in used:
        assert metrics[f"host.{layer}.share"] > 0.0, layer
        assert metrics[f"host.{layer}.calls_in"] > 0, layer
    for layer in bypassed:
        assert metrics[f"host.{layer}.share"] == 0.0, layer


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_identical_simulated_metrics(name):
    fn, size = tiny(name)
    assert fn(5, size).fingerprint() == fn(5, size).fingerprint()


def test_different_seed_changes_the_generated_trace():
    _fn, size = tiny("kv-put-open")
    assert trace_rows(1, 1.0, size) == trace_rows(1, 1.0, size)
    ids_1, ids_2 = kv_open(1, size).identity, kv_open(2, size).identity
    assert ids_1["trace_id@1.0"] != ids_2["trace_id@1.0"]


def test_fail_frac_accounting_on_synthetic_counters():
    counters = {"nic.rvma.tx_messages": 130, "nic.rvma.put_retries": 30, "nic.rvma.puts_lost": 4}
    assert motif_puts(counters) == (100, 4)
    assert motif_puts(dict(counters, **{"nic.rvma.puts_lost": 250})) == (100, 100)
    assert motif_puts({}) == (0, 0)
    stats = LoadStats(ops_issued=50, ops_completed=48, ops_failed=1, ops_overload=2,
                      ops_deadline=3, ops_dropped=2)
    assert kv_failures(stats) == 8


def test_lost_puts_are_counted_not_fatal():
    # 8 KiB puts into one shared bucket exhaust their NACK retry budget,
    # and Motif.run raises once puts are lost.
    _fn, size = tiny("incast-pkt")
    size.update(n_nodes=17, params={"msgs_per_client": 64, "msg_bytes": 8192})
    rep = motif(1, size)
    assert rep.errors == []
    assert 0 < rep.failed <= rep.attempted


def test_deadlock_is_a_correctness_failure(monkeypatch):
    run_motif = Halo3D.run

    def deadlock(self):
        run_motif(self)
        raise RuntimeError("halo3d: 8 ranks deadlocked")

    monkeypatch.setattr(Halo3D, "run", deadlock)
    fn, size = tiny("halo3d-fig8")
    assert any("deadlocked" in e for e in fn(1, size).errors)


def test_kv_invariant_failures_are_correctness_failures(monkeypatch):
    service, replay = workloads.run_kv_service, workloads.replay_trace

    def stalled(*args, **kwargs):
        outcome = service(*args, **kwargs)
        outcome.error = "workload did not finish by deadline"
        return outcome

    def unsafe(*args, **kwargs):
        cell = replay(*args, **kwargs)
        cell.safety_failures.append("key 'k000001' row 3: get observed a stale value")
        return cell

    monkeypatch.setattr(workloads, "run_kv_service", stalled)
    monkeypatch.setattr(workloads, "replay_trace", unsafe)
    for name in ("kv-get-closed", "kv-put-open"):
        fn, size = tiny(name)
        assert fn(1, size).errors, name


def test_nondeterministic_repeats_make_the_run_incorrect(monkeypatch):
    draws = iter(range(10))

    def drifting(seed, size):
        return Repeat(results={"sim_us": float(next(draws))}, layers={"sim.events": 1})

    monkeypatch.setitem(KINDS, "drifting", drifting)
    config = {"min_repeats": 2, "workloads": {"x": {"kind": "drifting", "size": {}}}}
    doc, _stats = run.measure("x", 1, 0.0, False, config)
    assert not doc["correct"]
    assert all("nondeterministic" in e for e in doc["errors"])


def test_layer_of_groups_code_by_repro_package():
    assert layer_of("/x/src/repro/nic/rvma.py") == "nic"
    assert layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert layer_of("/x/src/repro/timing/cache.py") == "rest"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "rest"
    assert layer_of("/x/bench/workloads.py") == "rest"


def test_attribute_charges_builtins_to_their_callers():
    # cProfile layout: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)}).
    engine = ("/x/src/repro/sim/engine.py", 10, "run")
    step = ("/x/src/repro/sim/process.py", 20, "_step")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    place = ("/x/src/repro/nic/rvma.py", 30, "place")
    profile = SimpleNamespace(stats={
        engine: (1, 1, 0.5, 2.0, {}),
        step: (4, 4, 0.1, 0.4, {engine: (4, 4, 0.1, 0.4)}),
        push: (10, 10, 0.3, 0.3, {engine: (6, 6, 0.2, 0.2), place: (4, 4, 0.1, 0.1)}),
        send: (4, 4, 0.0, 0.3, {step: (4, 4, 0.0, 0.3)}),
        place: (4, 4, 0.2, 0.3, {send: (4, 4, 0.2, 0.3)}),
    })
    out = attribute(profile)
    assert out["host.sim.self_s"] == pytest.approx(0.8)
    assert out["host.nic.self_s"] == pytest.approx(0.3)
    assert out["host.rest.self_s"] == pytest.approx(0.0)
    assert out["host.sim.share"] == pytest.approx(100 * 0.8 / 1.1)
    assert out["host.nic.calls_in"] == 4
    assert out["host.sim.calls_in"] == 0


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict_host(steady, steady, "lower", 0.1)[1] == "ok"
    assert verdict_host(steady, [v * 1.3 for v in steady], "lower", 0.1)[1] == "worse"
    assert verdict_host(steady, [v * 1.3 for v in steady], "higher", 0.1)[1] == "ok"
    assert verdict_host(steady, [0.5, 1.0, 1.5, 2.0, 1.0], "lower", 0.1)[1] == "unresolved"
    assert verdict_sim({1: [3.0], 2: [4.0]}, {1: [3.0], 2: [4.0]}) == "identical"
    assert verdict_sim({1: [3.0]}, {1: [3.5]}).startswith("changed")


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "incast-pkt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no repro package" in proc.stderr
