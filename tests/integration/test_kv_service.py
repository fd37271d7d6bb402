"""Integration tests for the sharded KV service (ISSUE PR 5 tentpole).

End-to-end correctness over real RVMA mailboxes, backpressure through
the transport's flow_room hold path, the churn driver's invariants, and
the service metrics an observed run reports.
"""

import pytest

from repro.cluster import Cluster
from repro.core.api import RvmaApi
from repro.experiments.kv_churn import run_kv_churn, run_kv_service
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.services import (
    KvClient,
    KvServer,
    KvServerConfig,
    ShardMap,
    WorkloadConfig,
)
from repro.services.wire import STATUS_NOT_FOUND, STATUS_OK
from repro.sim.process import spawn


def _service_cluster(n_server=1, n_client=1, shards_per_node=2):
    from repro.experiments.chaos import CHAOS_RELIABILITY

    cluster = Cluster.build(
        n_nodes=n_server + n_client, topology="star", nic_type="rvma",
        fidelity="flow", seed=7,
        nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    shard_map = ShardMap(list(range(n_server)), shards_per_node)
    servers = [
        KvServer(cluster.nodes[n], shard_map).start() for n in range(n_server)
    ]
    return cluster, shard_map, servers


def test_kv_ops_end_to_end(fabric_impl):
    """PUT/GET/DELETE/SCAN against a live server, both engine modes."""
    cluster, shard_map, servers = _service_cluster()
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, index=0)
    seen = {}

    def driver():
        yield from client.open()
        for i in range(8):
            status = yield from client.put(b"user%02d" % i, b"v%d" % i)
            assert status == STATUS_OK
        status, value = yield from client.get(b"user03")
        seen["get"] = (status, value)
        status = yield from client.delete(b"user03")
        assert status == STATUS_OK
        status, _ = yield from client.get(b"user03")
        seen["get_after_delete"] = status
        seen["scan"] = (yield from client.scan(b"user0"))
        for server in servers:
            server.stop()

    proc = spawn(cluster.sim, driver(), "driver")
    cluster.sim.run(until=10_000_000.0)
    assert proc.finished
    assert seen["get"] == (STATUS_OK, b"v3")
    assert seen["get_after_delete"] == STATUS_NOT_FOUND
    assert seen["scan"] == sorted(
        (b"user%02d" % i, b"v%d" % i) for i in range(8) if i != 3
    )
    # Service metrics are registered cluster-wide under their catalog names.
    reg = MetricsRegistry.collect(cluster.sim)
    assert reg.undocumented() == []
    assert reg.counters["service.kv.requests"] == reg.counters["service.kv.replies"]


def test_kv_batches_land_in_shard_order():
    """A pipelined batch spanning shards returns replies in issue order."""
    cluster, shard_map, servers = _service_cluster(shards_per_node=4)
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, index=1)
    got = []

    def driver():
        yield from client.open()
        from repro.services.wire import OP_GET, OP_PUT

        puts = [(OP_PUT, b"bk%02d" % i, b"x%d" % i) for i in range(12)]
        replies = yield from client.execute_batch(puts)
        got.append([r.status for r in replies])
        gets = [(OP_GET, b"bk%02d" % i, b"") for i in range(12)]
        replies = yield from client.execute_batch(gets)
        got.append([r.payload for r in replies])
        for server in servers:
            server.stop()

    proc = spawn(cluster.sim, driver(), "driver")
    cluster.sim.run(until=10_000_000.0)
    assert proc.finished
    assert got[0] == [STATUS_OK] * 12
    assert got[1] == [b"x%d" % i for i in range(12)]


def test_oversized_frame_is_rejected_not_held_forever():
    """A frame bigger than max_put_bytes raises instead of deadlocking
    against flow_room (a put larger than the bucket can never be paced
    in)."""
    cluster, shard_map, servers = _service_cluster()
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, max_put_bytes=256)
    failed = []

    def driver():
        yield from client.open()
        try:
            yield from client.put(b"k", b"v" * 512)
        except ValueError as exc:
            failed.append(str(exc))
        for server in servers:
            server.stop()

    proc = spawn(cluster.sim, driver(), "driver")
    cluster.sim.run(until=10_000_000.0)
    assert proc.finished
    assert failed and "max_put_bytes" in failed[0]


def test_backpressure_engages_under_starved_buckets():
    """Small server chunks + batched writers: the transport must pace
    deliveries (rx_paced > 0) and the run must still complete exactly."""
    out = run_kv_service(
        seed=3, n_server_nodes=1, shards_per_node=1,
        n_client_nodes=4, clients_per_node=2,
        workload=WorkloadConfig(
            n_ops=160, n_keys=32, value_bytes=192, zipf_s=0.9,
            mode="closed", batch=8,
        ),
        server_config=KvServerConfig(chunk_bytes=512, n_chunks=2, poll_interval_ns=4000.0),
    )
    assert out.invariants_ok, out.error
    assert out.rx_paced > 0
    assert out.ops_completed == 160


def test_kv_churn_driver_survives_link_flaps():
    out = run_kv_service(
        seed=1, n_server_nodes=2, shards_per_node=2,
        n_client_nodes=2, clients_per_node=2,
        workload=WorkloadConfig(n_ops=96, n_keys=48, zipf_s=0.9, batch=2),
        chaos=True, drop_prob=0.02, observe=True,
    )
    assert out.invariants_ok, out.error
    assert out.p50_ns > 0 and out.p99_ns >= out.p50_ns
    # The RunReport carries the latency histogram with its quantiles.
    service = out.run_report.metrics["service"]
    assert service["service.kv.request_latency_ns"]["p99"] == pytest.approx(out.p99_ns)
    assert out.run_report.meta["harness"] == "kv-churn"


def test_kv_churn_open_loop_mode():
    out = run_kv_service(
        seed=2, n_server_nodes=1, shards_per_node=2,
        n_client_nodes=2, clients_per_node=1,
        workload=WorkloadConfig(
            n_ops=64, n_keys=32, mode="open", mean_interarrival_ns=3000.0,
        ),
    )
    assert out.invariants_ok, out.error
    assert out.ops_completed == 64


def test_kv_churn_experiment_result_shape():
    res = run_kv_churn(seeds=(1,), observe=True)
    assert res.name == "kv-churn"
    assert res.summary["all_invariants_ok"] is True
    assert len(res.rows) == 1
    assert res.run_report is not None


def test_bench_kv_incast_smoke():
    cell = run_kv_service(
        n_server_nodes=1, n_client_nodes=2,
        workload=WorkloadConfig(n_ops=48, zipf_s=0.9, batch=4), observe=True,
    )
    service = cell.run_report.metrics["service"]
    latency = service["service.kv.request_latency_ns"]
    assert service["service.kv.requests"] == 48
    assert latency["p50"] > 0
    assert latency["p99"] >= latency["p50"]
    assert cell.invariants_ok is True
