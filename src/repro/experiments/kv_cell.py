"""One KV cell harness: a spec in, a typed result out.

Every KV experiment runs the same sequence: build an RVMA cluster with
the reliability transport (optionally under link flaps, with the
invariant auditor armed), start sharded :class:`KvServer` s (optionally
with tenant QoS, NIC placement quotas and NIC-served hot keys), open
one or more client pools, warm the hot keys, drive each pool, let late
retransmits drain, stop the servers, run the simulator to a bounded
deadline and read the metrics once.  :func:`run_kv_cell` owns that
sequence; an experiment is a :class:`KvCellSpec` plus the assertions
specific to it.

A client pool (:class:`ClientGroup`) is driven by one of:

* a :class:`~repro.services.WorkloadConfig` — a :class:`LoadGenerator`
  synthesizes the ops;
* a :class:`~repro.workloads.Trace` — a :class:`TraceReplayer` offers
  the recorded rows, one pool client per trace client, and the replay
  safety oracle checks the outcomes;
* a tuple of per-client scripts — ``script(client)`` generators, one
  process per client.

The run ends in exactly one typed outcome: :class:`Finished`,
:class:`Stalled` (the deadline passed with ops outstanding) or
:class:`Crashed` (the simulator raised).  Callers branch on the type,
never on error text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..faults.chaos import ChaosSchedule
from ..faults.injectors import FaultInjector
from ..network.config import NetworkConfig
from ..network.routing import RoutingMode
from ..nic.rvma import RvmaNicConfig
from ..observability import MetricsRegistry, RunReport, scrub_report
from ..recovery.auditor import InvariantAuditor
from ..services import (
    ClientRobustnessConfig,
    KvClient,
    KvServer,
    KvServerConfig,
    LoadGenerator,
    LoadStats,
    QosConfig,
    ShardMap,
    TenantDirectory,
    WorkloadConfig,
    install_placement_quota,
)
from ..services.kv import REPLY_MAILBOX_BASE, REQUEST_MAILBOX_BASE
from ..services.wire import OP_PUT
from ..sim.process import AllOf, spawn
from ..workloads import Trace, TraceRecorder, TraceReplayer, check_replay_safety
from .chaos import CHAOS_RELIABILITY

#: Finite host serving capacity (modeled CPU per request and per byte).
#: Without it execution is instantaneous, no dispatch queue forms, and
#: neither QoS nor the NIC serve path has anything to win.
COSTED_SERVICE = KvServerConfig(service_ns_per_request=800.0, service_ns_per_byte=0.2)


# ------------------------------------------------------------------ outcomes


@dataclass(frozen=True)
class Finished:
    """Every client pool ran to completion and the servers stopped."""


@dataclass(frozen=True)
class Stalled:
    """The deadline passed before the cell finished.

    ``ops_outstanding`` counts the ops not yet resolved, issued or not.
    A per-client script, whose ops the harness cannot see, counts once
    while it is still running.
    """

    deadline_ns: float
    ops_outstanding: int

    def __str__(self) -> str:
        return f"stalled: {self.ops_outstanding} ops outstanding at {self.deadline_ns:,.0f} ns"


@dataclass(frozen=True)
class Crashed:
    """The simulator raised; the cell's state is whatever it reached."""

    exc_type: str
    message: str

    def __str__(self) -> str:
        return f"{self.exc_type}: {self.message}"


Outcome = Union[Finished, Stalled, Crashed]


# ------------------------------------------------------------------ spec


@dataclass(frozen=True)
class FlapPlan:
    """Link flaps drawn against the built cluster's topology."""

    horizon_ns: float
    n_events: int
    max_window_ns: float
    drop_prob: float = 0.0

    def schedule(self, cluster: Cluster) -> ChaosSchedule:
        return ChaosSchedule.generate(
            cluster, horizon_ns=self.horizon_ns, n_events=self.n_events,
            max_window_ns=self.max_window_ns, drop_prob=self.drop_prob,
            kinds=("link_flap",),
        )


@dataclass(frozen=True)
class ClientGroup:
    """One client pool and what drives it.

    A ``WorkloadConfig`` pool spans ``nodes`` client nodes with
    ``clients_per_node`` clients each, numbered per node.  Trace and
    script pools, and every pool of a recording cell, put one client on
    each node, numbered by rank, because trace rows carry those client
    ids.  A trace pool takes its node count and tenants from the trace.
    """

    driver: Union[WorkloadConfig, Trace, tuple]
    nodes: int = 1
    clients_per_node: int = 1
    #: Tenant of each client node (empty: all untenanted).
    tenants: tuple = ()
    robustness: Optional[ClientRobustnessConfig] = None
    #: Replayer backlog cap (trace drivers; a WorkloadConfig has its own).
    max_backlog: Optional[int] = None

    def layout(self, ranked: bool) -> list:
        """``(node rank, client index, tenant)`` per client, in pool order."""
        if isinstance(self.driver, Trace):
            tenants = tuple(self.driver.tenant_of(tc) for tc in self.driver.clients())
        elif isinstance(self.driver, tuple):
            tenants = self.tenants or (0,) * len(self.driver)
        else:
            tenants = self.tenants or (0,) * self.nodes
        if ranked:
            return [(rank, rank, tenant) for rank, tenant in enumerate(tenants)]
        return [
            (rank, i, tenant)
            for rank, tenant in enumerate(tenants)
            for i in range(self.clients_per_node)
        ]

    def planned_ops(self) -> int:
        if isinstance(self.driver, Trace):
            return len(self.driver.rows)
        if isinstance(self.driver, tuple):
            return len(self.driver)
        return self.driver.n_ops


@dataclass(frozen=True)
class KvCellSpec:
    """Everything that varies between KV cells."""

    groups: tuple
    seed: int = 1
    #: Server nodes ``0..servers-1``; client nodes follow, group by group.
    servers: int = 1
    shards_per_node: int = 2
    server_config: KvServerConfig = field(default_factory=KvServerConfig)
    topology: str = "dragonfly"
    fidelity: str = "flow"
    routing: Optional[RoutingMode] = None
    #: Arm the reliability transport (CHAOS_RELIABILITY).
    reliability: bool = True
    #: Cluster size, when it must exceed the nodes the cell uses.
    n_nodes: Optional[int] = None
    chaos: Union[None, FlapPlan, ChaosSchedule] = None
    audit: bool = False
    spans: bool = False
    #: Tenant policy; setting it arms server-side QoS.
    tenants: Optional[TenantDirectory] = None
    placement_quota: bool = False
    #: ``(key, value)`` puts from the first client before any load.
    warm: tuple = ()
    #: Grace after the load resolves, before the shard streams close, so
    #: late retransmits land as stale duplicates instead of put loss.
    drain_ns: float = 0.0
    #: Attach a TraceRecorder to every client.
    record: bool = False
    #: Simulated-time bound of the run; a cell still running then stalled.
    deadline_ns: float = 50_000_000.0


# ------------------------------------------------------------------ result


def _counter(name: str) -> property:
    return property(lambda self: self.counters.get(name, 0), doc=f"Counter ``{name}``.")


@dataclass
class KvCellResult:
    """One cell's outcome and every observable the experiments read."""

    outcome: Outcome
    #: ``str(outcome)`` unless finished; any non-None value fails the cell.
    error: Optional[str]
    #: Each client group's load statistics, in spec order.
    group_stats: tuple
    elapsed_ns: float
    events_executed: int
    p50_ns: float
    p99_ns: float
    reply_batch_mean: float
    tenant_p99_ns: dict
    tenant_shed: dict
    #: Every canonical counter of the run (``MetricsRegistry`` names).
    counters: dict
    audit_ok: bool = True
    audit_violations: int = 0
    outcome_stream: list = field(default_factory=list)
    outcome_digest: str = ""
    safety_failures: list = field(default_factory=list)
    run_report: Optional[RunReport] = None
    recorder: Optional[TraceRecorder] = field(default=None, repr=False)
    cluster: object = field(default=None, repr=False)

    requests = _counter("service.kv.requests")  # host dispatches
    replies = _counter("service.kv.replies")
    flushes = _counter("service.kv.flushes")
    served = _counter("nic.rvma.active.served")  # NIC-served GETs
    handler_served = _counter("service.kv.client.handler_served")
    overload_replies = _counter("service.kv.overload_replies")
    quota_rejects = _counter("nic.rvma.quota_rejects")
    retries = _counter("service.kv.client.retries")
    retransmits = _counter("transport.retransmits")
    rx_paced = _counter("transport.rx_paced")
    gave_up = _counter("transport.gave_up")
    puts_lost = _counter("nic.rvma.puts_lost")
    puts_lost_quota = _counter("nic.rvma.puts_lost_quota")

    @property
    def completed(self) -> bool:
        return isinstance(self.outcome, Finished)

    @property
    def stats(self) -> LoadStats:
        """The first client group's load statistics."""
        return self.group_stats[0]

    @property
    def ops_issued(self) -> int:
        return self.stats.ops_issued

    @property
    def ops_completed(self) -> int:
        return self.stats.ops_completed

    @property
    def report(self) -> Optional[dict]:
        """The wall-clock-scrubbed run report, when one was collected."""
        return scrub_report(self.run_report.to_dict()) if self.run_report else None

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity: every op resolved, nothing silently lost.

        ``puts_lost`` may exceed zero only by the NIC quota-shed count.
        """
        return bool(
            self.completed
            and self.error is None
            and all(s.all_resolved() for s in self.group_stats)
            and not self.safety_failures
            and self.puts_lost == self.puts_lost_quota
            and self.gave_up == 0
            and self.audit_ok
        )


# ------------------------------------------------------------------ harness


def run_kv_cell(spec: KvCellSpec, before_run: Optional[Callable] = None) -> KvCellResult:
    """Build, drive and measure one KV cell.

    *before_run*, when given, is called with the built cluster just
    before the simulator starts (the scenario runner opens its cell span
    there).
    """
    layouts = []
    first = spec.servers
    for group in spec.groups:
        layout = group.layout(ranked=spec.record or not isinstance(group.driver, WorkloadConfig))
        layouts.append([(first + rank, i, tenant) for rank, i, tenant in layout])
        first += len({rank for rank, _i, _t in layout})
    cluster = Cluster.build(
        n_nodes=spec.n_nodes or first, topology=spec.topology, nic_type="rvma",
        fidelity=spec.fidelity, seed=spec.seed,
        nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY if spec.reliability else None),
        net_config=NetworkConfig(routing=spec.routing) if spec.routing is not None else None,
    )
    sim = cluster.sim
    if spec.chaos is not None:
        schedule = spec.chaos.schedule(cluster) if isinstance(spec.chaos, FlapPlan) else spec.chaos
        schedule.apply(FaultInjector(cluster))
    if spec.spans:
        sim.spans.enable()
    auditor = InvariantAuditor().attach(cluster) if spec.audit else None

    if spec.tenants is not None:
        for layout in layouts:
            for node, _i, tenant in layout:
                spec.tenants.assign_node(node, tenant)
    shard_map = ShardMap(list(range(spec.servers)), spec.shards_per_node)
    qos = QosConfig() if spec.tenants is not None else None
    servers = [
        KvServer(cluster.nodes[n], shard_map, spec.server_config, qos=qos, tenants=spec.tenants).start()
        for n in range(spec.servers)
    ]
    if spec.placement_quota:
        for n in range(spec.servers):
            install_placement_quota(
                cluster.nodes[n], spec.tenants,
                mailbox_lo=REQUEST_MAILBOX_BASE, mailbox_hi=REPLY_MAILBOX_BASE,
            )
    pools = [
        [
            KvClient(
                RvmaApi(cluster.nodes[node]), shard_map, index=index,
                max_put_bytes=spec.server_config.chunk_bytes, tenant_id=tenant,
                robustness=group.robustness,
            )
            for node, index, tenant in layout
        ]
        for group, layout in zip(spec.groups, layouts)
    ]
    recorder = TraceRecorder(sim).attach(*sum(pools, [])) if spec.record else None
    drivers = []
    for group, clients in zip(spec.groups, pools):
        if isinstance(group.driver, WorkloadConfig):
            drivers.append(LoadGenerator(sim, clients, group.driver))
        elif isinstance(group.driver, Trace):
            drivers.append(TraceReplayer(sim, clients, group.driver, max_backlog=group.max_backlog))
        else:
            drivers.append(None)

    def drive(g: int):
        clients, driver = pools[g], drivers[g]
        for client in clients:
            yield from client.open()
        if g == 0 and spec.warm:
            # Warm phase: with active handlers armed the host syncs each
            # value into the NIC view; the identical puts run either way.
            ops = [(OP_PUT, key, value) for key, value in spec.warm]
            counted = isinstance(driver, LoadGenerator)
            if counted:
                driver.stats.ops_issued += len(ops)
            replies = yield from clients[0].execute_batch(
                ops, deadline_ns=driver.config.deadline_ns if counted else None
            )
            if counted:
                for (op, _k, _v), reply in zip(ops, replies):
                    driver.stats.note(op, reply.status)
        yield from driver.run()

    def scripted(client, script):
        yield from client.open()
        yield from script(client)

    def finish():
        if spec.drain_ns:
            yield spec.drain_ns
        for server in servers:
            server.stop()

    scripts = []
    if isinstance(spec.groups[0].driver, tuple):
        scripts = [
            spawn(sim, scripted(client, script), f"kv-client{rank}")
            for rank, (client, script) in enumerate(zip(pools[0], spec.groups[0].driver))
        ]

        def master():
            yield AllOf(scripts)
            yield from finish()
    elif len(spec.groups) == 1:
        def master():
            yield from drive(0)
            yield from finish()
    else:
        def master():
            procs = [
                spawn(sim, drive(g), f"kv-group{g}")
                for g, group in enumerate(spec.groups) if group.planned_ops()
            ]
            yield AllOf(procs)
            yield from finish()

    proc = spawn(sim, master(), "kv-master")
    group_stats = tuple(d.stats if d is not None else LoadStats() for d in drivers)
    if before_run is not None:
        before_run(cluster)
    outcome: Outcome
    try:
        sim.run(until=spec.deadline_ns)
    except Exception as exc:  # an engine-level failure, not a modelled outcome
        outcome = Crashed(type(exc).__name__, str(exc))
    else:
        if proc.finished:
            outcome = Finished()
        else:
            outstanding = sum(not p.finished for p in scripts)
            for g, (group, driver) in enumerate(zip(spec.groups, drivers)):
                if driver is not None:
                    warm = len(spec.warm) if g == 0 and isinstance(driver, LoadGenerator) else 0
                    resolved = driver.stats.ops_completed + driver.stats.ops_dropped
                    outstanding += group.planned_ops() + warm - resolved
            outcome = Stalled(spec.deadline_ns, outstanding)

    registry = MetricsRegistry.collect(sim)
    latency = registry.histograms.get("service.kv.request_latency_ns")
    reply_batch = registry.summaries.get("service.kv.reply_batch")
    tenant_p99, tenant_shed = {}, {}
    for tenant in sorted({t for layout in layouts for _n, _i, t in layout}):
        hist = registry.histograms.get(f"service.kv.tenant.request_latency_ns.t{tenant}")
        if hist is not None and hist.count:
            tenant_p99[tenant] = hist.percentile(0.99)
        tenant_shed[tenant] = registry.counters.get(f"service.kv.tenant.shed.t{tenant}", 0)
    result = KvCellResult(
        outcome=outcome,
        error=None if isinstance(outcome, Finished) else str(outcome),
        group_stats=group_stats,
        elapsed_ns=sim.now,
        events_executed=sim.events_executed,
        p50_ns=latency.percentile(0.50) if latency is not None else float("nan"),
        p99_ns=latency.percentile(0.99) if latency is not None else float("nan"),
        reply_batch_mean=reply_batch.mean if reply_batch is not None else 0.0,
        tenant_p99_ns=tenant_p99,
        tenant_shed=tenant_shed,
        counters=registry.counters,
        audit_ok=auditor.ok if auditor is not None else True,
        audit_violations=len(auditor.violations) if auditor is not None else 0,
        recorder=recorder,
        cluster=cluster,
    )
    for group, driver in zip(spec.groups, drivers):
        if isinstance(driver, TraceReplayer):
            result.outcome_stream = driver.outcome_stream()
            result.outcome_digest = driver.outcome_digest()
            if isinstance(outcome, Finished):
                warmed = {key.decode("latin-1"): value for key, value in spec.warm}
                result.safety_failures = check_replay_safety(group.driver, driver.outcomes, warmed)
    return result
