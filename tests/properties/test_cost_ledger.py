"""The cost ledger: every benchmark workload's exact cost, pinned.

Wall time drifts from run to run and host to host; what a run *does*
does not.  Each cell below is one workload at test scale, built from
public ``repro`` APIs, and :data:`LEDGER` pins one row per cell:

* ``events``: simulator events executed, where the harness returns
  them (``active-flash`` sums its active-off and active-on runs);
* ``sim_ns``, or ``p50_ns``/``p99_ns`` for KV cells: the simulated
  results;
* ``trace_id`` and ``digest``: the offered trace and the outcome
  digest of a trace replay;
* ``calls``: warm Python calls, the sum of every profiled function's
  call count for one run made after two unprofiled warm-up runs.  The
  counts come from ``Profile.getstats()``, not from ``pstats``:
  ``pstats`` keys functions by (file, line, name), so the generated
  ``__init__`` methods of all dataclasses share one ``<string>`` key and
  all but one of them drop out of its ``total_calls``.  The first run of a process
  fills the ABCs' ``isinstance`` caches and makes 12 extra calls; the
  second already matches every later run, and the second warm-up is
  kept as margin for any cache that fills a run late.  The profiled
  run pauses the cyclic garbage collector: when collections fall
  depends on the whole process's heap, and each one calls every hook
  in ``gc.callbacks`` (Hypothesis installs one).

All of these are exact: identical under any ``PYTHONHASHSEED``, in any
cell order, and with a tracer installed.  Call counts differ between
interpreter versions, so they are checked only on
:data:`LEDGER_PYTHON`; simulated values are checked everywhere.

Any change to a row fails.  The assertion message prints the measured
row as a Python literal; an intended change pastes it over the old row
in a commit of its own, with the reason in CHANGES.md.
"""

from __future__ import annotations

import cProfile
import gc
import json
import random
import sys

import pytest

from repro import (
    Cluster,
    Halo3D,
    Incast,
    KvServerConfig,
    NetworkConfig,
    RdmaProtocol,
    RoutingMode,
    RvmaProtocol,
    Sweep3D,
    Trace,
    WorkloadConfig,
)
from repro.experiments.active_flash import run_flash_crowd
from repro.experiments.chaos import run_motif_under_chaos
from repro.experiments.kv_churn import run_kv_service
from repro.experiments.qos_noisy import run_noisy_neighbor
from repro.experiments.trace_replay import replay_trace
from repro.network.config import LINK_RATES
from repro.network.fabric import BaseFabric, FlowFabric
from repro.services import ZipfSampler
from repro.workloads import load_exemplar

SEED = 1

#: The interpreter whose call counts the ledger records.
LEDGER_PYTHON = (3, 11)


def _motif(motif_cls, nic, n_nodes, topology, routing, rate, fidelity, **params):
    def cell() -> dict:
        cluster = Cluster.build(
            n_nodes=n_nodes, topology=topology, nic_type=nic, fidelity=fidelity,
            net_config=NetworkConfig(link_bw=LINK_RATES[rate], routing=routing), seed=SEED,
        )
        protocol = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
        result = motif_cls(cluster, protocol, **params).run()
        return {"events": cluster.sim.events_executed, "sim_ns": result.elapsed}

    return cell


def _halo3d(nic):
    return _motif(Halo3D, nic, 27, "hyperx", RoutingMode.STATIC, "400Gbps", "flow",
                  iterations=2, msg_bytes=8192, compute_ns=1000.0)


def _sweep3d(nic):
    return _motif(Sweep3D, nic, 16, "dragonfly", RoutingMode.ADAPTIVE, "2Tbps", "flow",
                  kb=2, msg_bytes=2048, compute_ns=900.0)


def _kv_row(cell) -> dict:
    return {"events": cell.events_executed, "p50_ns": cell.p50_ns, "p99_ns": cell.p99_ns}


def kv_get_closed() -> dict:
    """Closed-loop GET-heavy service, the eight hottest keys served by the NIC."""
    cell = run_kv_service(
        seed=SEED, n_server_nodes=1, n_client_nodes=2,
        workload=WorkloadConfig(
            n_ops=400, n_keys=512, zipf_s=0.99, get_frac=0.95, put_frac=0.05, batch=4,
        ),
        server_config=KvServerConfig(hot_keys=tuple(b"k%06d" % rank for rank in range(8))),
    )
    return _kv_row(cell)


def kv_put_open() -> dict:
    """Open-loop replay of 200 seeded rows: 80% 1 KiB PUTs at 1 Mops/s."""
    rng = random.Random(SEED)
    zipf = ZipfSampler(512, 0.99)
    rows, t = [], 50_000.0
    for _ in range(200):
        t += rng.expovariate(1e-3)
        put = rng.random() < 0.8
        rows.append([round(t), 0, 1 + rng.randrange(16), "put" if put else "get",
                     "k%06d" % zipf.sample(rng.random()), 1024 if put else 0])
    trace = Trace.from_rows(rows, provenance={"source": "cost-ledger", "seed": SEED})
    cell = replay_trace(trace, seed=SEED, qos=False, active=False, audit=True, shards_per_node=4)
    return {**_kv_row(cell), "trace_id": trace.trace_id, "digest": cell.outcome_digest}


def kv_noisy() -> dict:
    """One noisy-neighbor cell with QoS on: victim solo, then victim + aggressor."""
    cell = run_noisy_neighbor(seed=SEED, victim_ops=30, aggressor_ops=120, aggressor_batch=4)
    return _kv_row(cell)


def active_flash() -> dict:
    """The hot-key flash-crowd contrast: active mailboxes off, then on."""
    outcome = run_flash_crowd(seed=SEED, n_ops=120)
    return {
        "events": outcome.off.events_executed + outcome.on.events_executed,
        "p50_ns": outcome.on.p50_ns,
        "p99_ns": outcome.on.p99_ns,
    }


def kv_trace() -> dict:
    """The committed ``steady-mix`` exemplar replayed with the auditor on."""
    trace = load_exemplar("steady-mix")
    cell = replay_trace(trace, seed=SEED)
    return {**_kv_row(cell), "trace_id": trace.trace_id, "digest": cell.outcome_digest}


def chaos_crash() -> dict:
    """Allreduce under chaos with one crash-restart; the runner owns its simulator."""
    outcome = run_motif_under_chaos("allreduce", seed=SEED, n_crashes=1, compare_clean=False)
    return {"sim_ns": outcome.elapsed_ns}


CELLS = {
    "halo3d-fig8-rvma": _halo3d("rvma"),
    "halo3d-fig8-rdma": _halo3d("rdma"),
    "sweep3d-fig7-rvma": _sweep3d("rvma"),
    "sweep3d-fig7-rdma": _sweep3d("rdma"),
    "incast-pkt": _motif(Incast, "rvma", 33, "dragonfly", RoutingMode.ADAPTIVE, "400Gbps",
                         "packet", msgs_per_client=4, msg_bytes=4096),
    "kv-get-closed": kv_get_closed,
    "kv-put-open": kv_put_open,
    "kv-noisy": kv_noisy,
    "active-flash": active_flash,
    "kv-trace": kv_trace,
    "chaos-crash": chaos_crash,
}

#: One row per cell, as measured on CPython 3.11 (x86-64 Linux).
LEDGER = {
    "halo3d-fig8-rvma": {"events": 3310, "sim_ns": 7729.600000000008, "calls": 80309},
    "halo3d-fig8-rdma": {"events": 9925, "sim_ns": 14161.439999999988, "calls": 148591},
    "sweep3d-fig7-rvma": {"events": 3624, "sim_ns": 100284.57600000015, "calls": 97096},
    "sweep3d-fig7-rdma": {"events": 13305, "sim_ns": 340844.2840000008, "calls": 204309},
    "incast-pkt": {"events": 2659, "sim_ns": 25396.573333333334, "calls": 60764},
    "kv-get-closed": {"events": 3154, "p50_ns": 3480.0, "p99_ns": 4500.0, "calls": 157810},
    "kv-put-open": {"events": 5577, "p50_ns": 5897.4358974358975, "p99_ns": 13740.000000000002, "trace_id": "6a435915cd61", "digest": "ed185a447f1e6859", "calls": 231621},
    "kv-noisy": {"events": 7179, "p50_ns": 5657.894736842105, "p99_ns": 269875.0, "calls": 276250},
    "active-flash": {"events": 6072, "p50_ns": 3547.6190476190473, "p99_ns": 5970.000000000001, "calls": 230659},
    "kv-trace": {"events": 6080, "p50_ns": 5605.263157894738, "p99_ns": 11890.0, "trace_id": "1ff9996b3c04", "digest": "94298908219159c9", "calls": 256021},
    "chaos-crash": {"sim_ns": 398290.0, "calls": 39266},
}


def measure(cell) -> dict:
    """*cell*'s row, with the warm Python calls of one profiled run."""
    cell()
    cell()
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        row = cell()
    finally:
        profiler.disable()
        gc.enable()
    row["calls"] = sum(entry.callcount for entry in profiler.getstats())
    return row


@pytest.mark.parametrize("name", sorted(CELLS.keys() | LEDGER.keys()))
def test_cell_cost_matches_ledger(name):
    row = measure(CELLS[name])
    pinned = LEDGER.get(name)
    if pinned and sys.version_info[:2] != LEDGER_PYTHON:
        row["calls"] = pinned["calls"]
    assert row == pinned, f"{name} changed; measured row:\n    \"{name}\": {json.dumps(row)},"


def test_ledger_catches_one_extra_relay_per_delivery(monkeypatch):
    # A zero-delay hop in front of each message's one receiver event
    # (the fused ``_deliver``: fault filter, latency sample, NIC entry)
    # keeps every simulated time, so only the cost columns catch it.
    relays = []

    def relayed(fabric, node_id, delivery):
        relays.append(node_id)
        fabric.sim.post(0.0, BaseFabric._deliver, fabric, node_id, delivery)

    monkeypatch.setattr(FlowFabric, "_deliver", relayed)
    row = measure(CELLS["sweep3d-fig7-rvma"])
    pinned = LEDGER["sweep3d-fig7-rvma"]
    per_run, rest = divmod(len(relays), 3)  # measure() runs the cell three times
    assert rest == 0 and per_run > 0
    assert row["sim_ns"] == pinned["sim_ns"]
    assert row["events"] == pinned["events"] + per_run
    assert row["calls"] != pinned["calls"]
