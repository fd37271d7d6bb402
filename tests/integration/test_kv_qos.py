"""Integration tests: multi-tenant QoS end to end (ISSUE PR 7 tentpole).

Each enforcement point is exercised over real RVMA mailboxes — the
token-bucket admitter (RC_OVERLOAD replies), the NIC placement quota
(reject-into-counter, no transport stall), client deadlines (no op
stalls forever even against a drowning server), the open-loop backlog
cap, and the noisy-neighbor experiment's invariants.
"""

from repro.cluster import Cluster
from repro.core.api import RvmaApi
from repro.experiments.qos_noisy import run_noisy_neighbor
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.services import (
    ClientRobustnessConfig,
    KvClient,
    KvServer,
    KvServerConfig,
    LoadGenerator,
    QosConfig,
    ShardMap,
    TenantDirectory,
    TenantSpec,
    WorkloadConfig,
    install_placement_quota,
)
from repro.services.kv import REPLY_MAILBOX_BASE, REQUEST_MAILBOX_BASE
from repro.services.wire import (
    OP_PUT,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_OK,
    STATUS_OVERLOAD,
)
from repro.sim.process import spawn


def _qos_cluster(tenants, n_nodes=2, server_config=None, qos=True):
    from repro.experiments.chaos import CHAOS_RELIABILITY

    cluster = Cluster.build(
        n_nodes=n_nodes, topology="star", nic_type="rvma", fidelity="flow",
        seed=11, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    shard_map = ShardMap([0], shards_per_node=2)
    server = KvServer(
        cluster.nodes[0],
        shard_map,
        config=server_config,
        qos=QosConfig() if qos else None,
        tenants=tenants if qos else None,
    ).start()
    return cluster, shard_map, server


def test_admission_sheds_storm_with_rc_overload():
    """A metered tenant's burst past its bucket resolves as RC_OVERLOAD."""
    tenants = TenantDirectory(
        (TenantSpec(1, admit_rate_bytes_per_us=1.0, admit_burst_bytes=512.0),)
    )
    tenants.assign_node(1, 1)
    cluster, shard_map, server = _qos_cluster(tenants)
    client = KvClient(
        RvmaApi(cluster.nodes[1]), shard_map, index=0, tenant_id=1,
        robustness=ClientRobustnessConfig(),
    )
    statuses = []

    def driver():
        yield from client.open()
        ops = [(OP_PUT, b"k%02d" % i, b"x" * 64) for i in range(24)]
        replies = yield from client.execute_batch(ops, deadline_ns=2_000_000.0)
        statuses.extend(r.status for r in replies)
        server.stop()

    proc = spawn(cluster.sim, driver(), "storm")
    cluster.sim.run(until=20_000_000.0)
    assert proc.finished
    assert statuses.count(STATUS_OK) > 0          # the burst allowance
    assert statuses.count(STATUS_OVERLOAD) > 0    # the excess, shed
    assert len(statuses) == 24                    # every op resolved
    counters = MetricsRegistry.collect(cluster).counters
    assert counters["service.kv.overload_replies"] == statuses.count(STATUS_OVERLOAD)
    assert counters["service.kv.tenant.shed.t1"] == statuses.count(STATUS_OVERLOAD)
    assert MetricsRegistry.collect(cluster.sim).undocumented() == []


def test_deadline_resolves_against_a_drowning_server():
    """Requests to a server busy for longer than the deadline resolve
    client-side as DEADLINE_EXCEEDED — no op stalls forever."""
    tenants = TenantDirectory((TenantSpec(1),))
    tenants.assign_node(1, 1)
    cluster, shard_map, server = _qos_cluster(
        tenants,
        server_config=KvServerConfig(service_ns_per_request=5_000_000.0),
    )
    client = KvClient(
        RvmaApi(cluster.nodes[1]), shard_map, index=0, tenant_id=1,
        robustness=ClientRobustnessConfig(request_timeout_ns=50_000.0),
    )
    statuses = []

    def driver():
        yield from client.open()
        for i in range(3):
            replies = yield from client.execute_batch(
                [(OP_PUT, b"slow%d" % i, b"v")], deadline_ns=400_000.0
            )
            statuses.append(replies[0].status)

    proc = spawn(cluster.sim, driver(), "deadline")
    cluster.sim.run(until=4_000_000.0)
    assert proc.finished, "deadline-armed client must never stall"
    assert statuses == [STATUS_DEADLINE_EXCEEDED] * 3
    counters = MetricsRegistry.collect(cluster).counters
    assert counters["service.kv.client.timeouts"] > 0
    assert counters["service.kv.client.retries"] > 0
    assert counters["service.kv.tenant.deadline_misses.t1"] == 3


def test_nic_quota_rejects_into_counter_without_transport_stall():
    """Placement-quota rejects are terminal and accounted: every lost put
    is a quota loss, and the retry-less client resolves by deadline."""
    tenants = TenantDirectory(
        (TenantSpec(1, nic_quota_bytes_per_us=1.0, nic_quota_burst_bytes=400.0),)
    )
    tenants.assign_node(1, 1)
    cluster, shard_map, server = _qos_cluster(tenants)
    install_placement_quota(
        cluster.nodes[0], tenants,
        mailbox_lo=REQUEST_MAILBOX_BASE, mailbox_hi=REPLY_MAILBOX_BASE,
    )
    client = KvClient(
        RvmaApi(cluster.nodes[1]), shard_map, index=0, tenant_id=1,
        robustness=ClientRobustnessConfig(max_retries=0),
    )
    statuses = []

    def driver():
        yield from client.open()
        for i in range(12):
            replies = yield from client.execute_batch(
                [(OP_PUT, b"q%02d" % i, b"y" * 64)], deadline_ns=400_000.0
            )
            statuses.append(replies[0].status)
        yield 100_000.0  # let any late NACK accounting land
        server.stop()

    proc = spawn(cluster.sim, driver(), "quota")
    cluster.sim.run(until=30_000_000.0)
    assert proc.finished
    assert statuses.count(STATUS_OK) > 0
    assert statuses.count(STATUS_DEADLINE_EXCEEDED) > 0
    reg = MetricsRegistry.collect(cluster.sim)
    assert reg.counters["service.kv.tenant.quota_rejects.t1"] > 0
    assert reg.counters["nic.rvma.quota_rejects"] > 0
    # Reject-into-counter, not data loss: every lost put is a quota loss.
    assert reg.counters["nic.rvma.puts_lost"] == reg.counters["nic.rvma.puts_lost_quota"]
    assert reg.undocumented() == []


def test_open_loop_backlog_cap_sheds_and_counts():
    """Offered load past the backlog cap is dropped at the generator —
    counted, resolved, and bounded instead of queueing without limit."""
    tenants = TenantDirectory((TenantSpec(1),))
    tenants.assign_node(1, 1)
    cluster, shard_map, server = _qos_cluster(
        tenants,
        server_config=KvServerConfig(service_ns_per_request=20_000.0),
        qos=False,
    )
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, index=0)
    gen = LoadGenerator(
        cluster.sim,
        [client],
        WorkloadConfig(
            n_ops=120, n_keys=16, mode="open",
            mean_interarrival_ns=200.0, max_backlog=8,
        ),
    )
    out = {}

    def driver():
        yield from client.open()
        out["stats"] = yield from gen.run()
        server.stop()

    proc = spawn(cluster.sim, driver(), "openloop")
    cluster.sim.run(until=80_000_000.0)
    assert proc.finished
    stats = out["stats"]
    assert stats.ops_dropped > 0
    assert stats.all_resolved()
    counters = MetricsRegistry.collect(cluster).counters
    assert counters["service.kv.client.backlog_dropped"] == stats.ops_dropped


def test_noisy_neighbor_experiment_isolates_victim():
    """Downsized noisy-neighbor cell: with QoS armed, invariants hold,
    every op resolves, and the QoS mechanisms actually engaged."""
    outcome = run_noisy_neighbor(
        seed=1, qos=True, victim_ops=80, aggressor_ops=320, aggressor_batch=4
    )
    assert outcome.completed and outcome.error is None
    assert outcome.resolved
    assert outcome.invariants_ok
    assert outcome.overload_replies > 0 or outcome.quota_rejects > 0
    assert outcome.victim_deadline_misses == 0
