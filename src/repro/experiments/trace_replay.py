"""Trace replay harness: the same recorded load, every protocol variant.

Everything here drives one contract: a :class:`~repro.workloads.Trace`
replayed under any combination of engine mode (fast/plain), feature
toggles (QoS on/off, active mailboxes on/off) and — at the frame level —
wire backend (rvma/verbs/ucx) offers *bit-identical* load, so whatever
differs between two runs is the variant under test, never the workload.

Four entry points:

* :func:`record_trace` — run a stock :class:`LoadGenerator` workload
  with a :class:`TraceRecorder` attached and freeze the offered ops
  into a trace (the exemplars under ``corpus/traces/`` come from here);
* :func:`replay_trace` — replay a trace against a live sharded KV
  cluster and collect outcomes, per-key safety verdicts and metrics;
* :func:`compare_trace` — replay the same trace base vs QoS-on vs
  active-on and assert the documented contrasts on identical offered
  load (the ``trace compare`` CLI and CI wrap this);
* :func:`replay_trace_frames` — encode every trace row into its wire
  frame and push the per-client frame streams through one protocol
  backend, for the rvma/verbs/ucx byte-identity differential.

Also home of the ``trace`` CLI subcommand
(``rvma-experiments trace --help``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Optional

from ..cluster.builder import Cluster
from ..core.addressing import stable_hash64
from ..core.api import RvmaApi
from ..nic.rvma import RvmaNicConfig
from ..observability import MetricsRegistry, RunReport
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
    TenantSpec,
    WorkloadConfig,
)
from ..services.wire import OP_PUT, encode_request
from ..sim.process import spawn
from ..workloads import (
    EXEMPLAR_NAMES,
    EXEMPLARS,
    Trace,
    TraceRecorder,
    TraceReplayer,
    check_replay_safety,
    exemplar_path,
    load_exemplar,
    value_for,
)
from ..workloads.replayer import _OP_CODES
from .chaos import CHAOS_RELIABILITY

#: Per-op deadline budget for QoS replay cells (the fuzzer's value): a
#: miss means a genuinely shed request, not a slow one.
TRACE_OP_DEADLINE_NS = 8_000_000.0

#: Whole-cell sim deadline (stall guard).
TRACE_SIM_DEADLINE_NS = 400_000_000.0

#: Hot keys armed on the NIC in active cells (top GET keys of the trace).
DEFAULT_HOT_KEYS = 4


def warm_value_for(key: str) -> bytes:
    """Deterministic warm-phase PUT payload for *key* (pure function)."""
    fill = (stable_hash64(key.encode("latin-1")) + 131) % 251 + 1
    return bytes([fill]) * 48


def hot_keys_of(trace: Trace, n_hot: int = DEFAULT_HOT_KEYS) -> tuple:
    """The trace's *n_hot* most-GET keys (count desc, key asc) as bytes."""
    counts: dict = {}
    for row in trace.rows:
        if row.op == "get":
            counts[row.key] = counts.get(row.key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(key.encode("latin-1") for key, _n in ranked[:n_hot])


def _tenant_directory(trace: Trace) -> TenantDirectory:
    """The replay QoS policy, derived from the trace's tenant set.

    Lowest non-zero tenant is the favoured victim (4x DRR weight,
    unmetered); every other non-zero tenant gets a modest admission
    budget so overload is shed at the server door.  No NIC placement
    quotas — replay keeps ``puts_lost == 0`` an unconditional invariant.
    """
    nonzero = [t for t in trace.tenants() if t != 0]
    specs = []
    for i, tenant in enumerate(nonzero):
        if i == 0:
            specs.append(TenantSpec(tenant, "victim", weight=4.0))
        else:
            specs.append(TenantSpec(
                tenant, f"tenant{tenant}", weight=1.0,
                admit_rate_bytes_per_us=2.0, admit_burst_bytes=256.0,
            ))
    return TenantDirectory(
        tenants=tuple(specs), default=TenantSpec(0, "default", weight=1.0)
    )


@dataclass
class ReplayCell:
    """One replay run's observables."""

    completed: bool
    error: Optional[str]
    stats: LoadStats
    outcome_stream: list
    outcome_digest: str
    safety_failures: list
    p99_ns: float
    tenant_p99_ns: dict
    tenant_shed: dict
    requests: int
    served: int
    handler_served: int
    overload_replies: int
    puts_lost: int
    puts_lost_quota: int
    gave_up: int
    audit_ok: bool
    audit_violations: int
    events_executed: int
    report: Optional[dict] = None
    cluster: object = field(default=None, repr=False)

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity + per-key safety for one cell."""
        return bool(
            self.completed
            and self.error is None
            and self.stats.all_resolved()
            and not self.safety_failures
            and self.puts_lost - self.puts_lost_quota == 0
            and self.gave_up == 0
            and self.audit_ok
        )


def replay_trace(
    trace: Trace,
    seed: int = 1,
    qos: bool = False,
    active: bool = False,
    audit: bool = True,
    observe: bool = False,
    n_hot: int = DEFAULT_HOT_KEYS,
    shards_per_node: int = 2,
    topology: str = "dragonfly",
    max_backlog: Optional[int] = None,
    check_safety: bool = True,
    sim_deadline_ns: float = TRACE_SIM_DEADLINE_NS,
) -> ReplayCell:
    """Replay *trace* against a live sharded KV cluster.

    The cluster shape follows the trace: one server node plus one client
    node per distinct trace client, each pool client stamped with its
    trace client's tenant.  The warm phase (one PUT per hot key, hot set
    derived from the trace alone) runs in **every** cell — QoS on or
    off, active on or off — so toggles never change the offered load.
    """
    clients_ids = trace.clients()
    if not clients_ids:
        raise ValueError("cannot replay an empty trace")
    n_nodes = 1 + len(clients_ids)
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    if observe:
        cluster.sim.spans.enable()
    auditor = InvariantAuditor().attach(cluster) if audit else None

    hot = hot_keys_of(trace, n_hot)
    # Finite host serving capacity, the active_flash constants: without
    # per-request CPU cost no dispatch queue forms and neither QoS nor
    # the NIC serve path has anything to win.
    server_config = KvServerConfig(
        service_ns_per_request=800.0, service_ns_per_byte=0.2,
        hot_keys=hot if active else (),
    )
    shard_map = ShardMap([0], shards_per_node=shards_per_node)
    directory = _tenant_directory(trace) if qos else None
    if directory is not None:
        for i, tc in enumerate(clients_ids):
            directory.assign_node(1 + i, trace.tenant_of(tc))
        server = KvServer(
            cluster.nodes[0], shard_map, server_config,
            qos=QosConfig(), tenants=directory,
        ).start()
    else:
        server = KvServer(cluster.nodes[0], shard_map, server_config).start()
    # Identical client wiring in EVERY cell: max_retries=0 keeps the
    # safety oracle's executed-once-or-not-at-all ambiguity model, and
    # arming robustness unconditionally means the qos toggle changes
    # only server-side policy, never the client reply path.
    robustness = ClientRobustnessConfig(
        max_retries=0, default_deadline_ns=TRACE_OP_DEADLINE_NS
    )

    clients = [
        KvClient(
            RvmaApi(cluster.nodes[1 + i]), shard_map, index=i,
            max_put_bytes=server_config.chunk_bytes,
            tenant_id=trace.tenant_of(tc), robustness=robustness,
        )
        for i, tc in enumerate(clients_ids)
    ]
    replayer = TraceReplayer(
        cluster.sim, clients, trace,
        deadline_ns=TRACE_OP_DEADLINE_NS,
        max_backlog=max_backlog,
    )
    warmed = {key.decode("latin-1"): warm_value_for(key.decode("latin-1")) for key in hot}

    def master():
        for client in clients:
            yield from client.open()
        # Warm phase: one PUT per hot key from the first client, before
        # any trace row fires.  When active handlers are armed the host
        # syncs each value into the NIC view, so crowd GETs find a
        # servable entry — and the identical puts run with active off.
        warm = [(OP_PUT, key, warm_value_for(key.decode("latin-1"))) for key in hot]
        if warm:
            yield from clients[0].execute_batch(warm)
        yield from replayer.run()
        # Drain grace before shard streams close (stale-late idiom).
        yield 100_000.0
        server.stop()

    proc = spawn(cluster.sim, master(), "trace-master")
    error: Optional[str] = None
    try:
        cluster.sim.run(until=sim_deadline_ns)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error is None and not proc.finished:
        error = f"replay did not finish by sim_deadline_ns={sim_deadline_ns:,.0f}"

    registry = MetricsRegistry.collect(cluster.sim)
    counters = registry.counters
    latency = registry.histograms.get("service.kv.request_latency_ns")
    tenant_p99 = {}
    tenant_shed = {}
    for tenant in trace.tenants():
        h = registry.histograms.get(f"service.kv.tenant.request_latency_ns.t{tenant}")
        if h is not None and h.count:
            tenant_p99[tenant] = h.percentile(0.99)
        shed = counters.get(f"service.kv.tenant.shed.t{tenant}", 0)
        tenant_shed[tenant] = shed

    failures = (
        check_replay_safety(trace, replayer.outcomes, warmed)
        if check_safety and error is None
        else []
    )
    report = None
    if observe:
        from ..scenarios.runner import scrub_report

        report = scrub_report(RunReport.collect(
            cluster,
            meta={
                "harness": "trace-replay",
                "trace_id": trace.trace_id,
                "seed": seed,
                "qos": qos,
                "active": active,
            },
        ).to_dict())
    return ReplayCell(
        completed=proc.finished,
        error=error,
        stats=replayer.stats,
        outcome_stream=replayer.outcome_stream(),
        outcome_digest=replayer.outcome_digest(),
        safety_failures=failures,
        p99_ns=latency.percentile(0.99) if latency is not None else float("nan"),
        tenant_p99_ns=tenant_p99,
        tenant_shed=tenant_shed,
        requests=counters.get("service.kv.requests", 0),
        served=counters.get("nic.rvma.active.served", 0),
        handler_served=counters.get("service.kv.client.handler_served", 0),
        overload_replies=counters.get("service.kv.overload_replies", 0),
        puts_lost=counters.get("nic.rvma.puts_lost", 0),
        puts_lost_quota=counters.get("nic.rvma.puts_lost_quota", 0),
        gave_up=counters.get("transport.gave_up", 0),
        audit_ok=auditor.ok if auditor is not None else True,
        audit_violations=len(auditor.violations) if auditor is not None else 0,
        events_executed=cluster.sim.events_executed,
        report=report,
        cluster=cluster,
    )


# ------------------------------------------------------------------- compare


@dataclass
class CompareOutcome:
    """The three-way contrast on one trace: base vs QoS-on vs active-on."""

    trace_id: str
    seed: int
    base: ReplayCell
    qos_on: ReplayCell
    active_on: ReplayCell
    victim: Optional[int]
    aggressors: tuple

    @property
    def offered_identical(self) -> bool:
        """All cells offered every trace row (same count, zero drops)."""
        cells = (self.base, self.qos_on, self.active_on)
        return (
            len({c.stats.ops_issued for c in cells}) == 1
            and all(c.stats.ops_dropped == 0 for c in cells)
        )

    @property
    def invariants_ok(self) -> bool:
        return bool(
            self.base.invariants_ok
            and self.qos_on.invariants_ok
            and self.active_on.invariants_ok
            and self.offered_identical
            and self.base.served == 0  # active off must not serve
            and self.qos_on.served == 0
        )

    @property
    def dispatch_saving(self) -> int:
        return self.base.requests - self.active_on.requests

    @property
    def qos_contrast_ok(self) -> bool:
        """QoS isolation on identical load (needs a victim + aggressor).

        The aggressor gets shed, the victim does not, and the victim's
        p99 with QoS on beats its p99 in the unprotected base cell.
        """
        if self.victim is None or not self.aggressors:
            return True  # single-tenant trace: nothing to isolate
        victim_base = self.base.tenant_p99_ns.get(self.victim, float("inf"))
        victim_qos = self.qos_on.tenant_p99_ns.get(self.victim, float("inf"))
        return bool(
            sum(self.qos_on.tenant_shed.get(t, 0) for t in self.aggressors) > 0
            and self.qos_on.tenant_shed.get(self.victim, 0) == 0
            and victim_qos < victim_base
        )

    @property
    def active_contrast_ok(self) -> bool:
        """Active serving on identical load: faster tail, saved dispatches."""
        return bool(
            self.active_on.served > 0
            and self.dispatch_saving >= self.active_on.served
            and self.active_on.handler_served >= self.active_on.served
            and self.active_on.p99_ns < self.base.p99_ns
        )


def compare_trace(
    trace: Trace,
    seed: int = 1,
    observe: bool = False,
    **kw,
) -> CompareOutcome:
    """Replay *trace* three ways on identical offered load."""
    base = replay_trace(trace, seed=seed, qos=False, active=False, observe=observe, **kw)
    qos_on = replay_trace(trace, seed=seed, qos=True, active=False, observe=observe, **kw)
    active_on = replay_trace(trace, seed=seed, qos=False, active=True, observe=observe, **kw)
    nonzero = [t for t in trace.tenants() if t != 0]
    return CompareOutcome(
        trace_id=trace.trace_id,
        seed=seed,
        base=base,
        qos_on=qos_on,
        active_on=active_on,
        victim=nonzero[0] if nonzero else None,
        aggressors=tuple(nonzero[1:]),
    )


# ------------------------------------------------------------------- recording


def record_trace(
    seed: int = 1,
    workload: Optional[WorkloadConfig] = None,
    client_tenants: tuple = (0, 0, 0),
    shards_per_node: int = 2,
    topology: str = "dragonfly",
    source: str = "loadgen",
    sim_deadline_ns: float = TRACE_SIM_DEADLINE_NS,
) -> tuple:
    """Record a stock LoadGenerator run into a Trace; returns (trace, stats).

    One client node (one client) per entry in *client_tenants*; the
    trace's provenance pins the seed and the full workload shape, so a
    committed trace documents exactly how to regenerate itself.
    """
    workload = workload or WorkloadConfig(mode="open")
    n_nodes = 1 + len(client_tenants)
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    server_config = KvServerConfig(
        service_ns_per_request=800.0, service_ns_per_byte=0.2
    )
    shard_map = ShardMap([0], shards_per_node=shards_per_node)
    server = KvServer(cluster.nodes[0], shard_map, server_config).start()
    clients = [
        KvClient(
            RvmaApi(cluster.nodes[1 + i]), shard_map, index=i,
            max_put_bytes=server_config.chunk_bytes, tenant_id=tenant,
        )
        for i, tenant in enumerate(client_tenants)
    ]
    recorder = TraceRecorder(cluster.sim).attach(*clients)
    gen = LoadGenerator(cluster.sim, clients, workload)

    def master():
        for client in clients:
            yield from client.open()
        yield from gen.run()
        yield 100_000.0
        server.stop()

    proc = spawn(cluster.sim, master(), "trace-record")
    cluster.sim.run(until=sim_deadline_ns)
    if not proc.finished:
        raise RuntimeError(
            f"recording stalled (deadline {sim_deadline_ns:,.0f} ns)"
        )
    from dataclasses import asdict

    trace = recorder.finish(provenance={
        "seed": seed,
        "source": source,
        "workload": asdict(workload),
        "client_tenants": list(client_tenants),
        "transforms": [],
    })
    return trace, gen.stats


# ------------------------------------------------------------- frame differential


def replay_trace_frames(
    trace: Trace,
    backend: str,
    seed: int = 1,
    topology: str = "star",
) -> tuple:
    """Push every trace row's wire frame through one protocol backend.

    The KV service itself runs on RVMA mailboxes; what the backends
    must agree on is byte transport.  Each trace client becomes one
    (client node → server node) channel carrying its rows' request
    frames in program order — the scenario differential's channel
    harness, fed by a trace instead of a synthetic matrix.  Returns
    ``(delivered, counts, stalled)``; two backends replaying the same
    trace must produce identical delivered bytes and counts.
    """
    from ..motifs import RdmaProtocol, RvmaProtocol, UcxProtocol
    from ..network.routing import RoutingMode

    factories = {
        "rvma": lambda: RvmaProtocol(mode=RoutingMode.STATIC),
        "verbs": lambda: RdmaProtocol(mode=RoutingMode.STATIC),
        "ucx": lambda: UcxProtocol(mode=RoutingMode.STATIC),
    }
    proto = factories[backend]()
    clients_ids = trace.clients()
    frames: dict = {tc: [] for tc in clients_ids}
    for index, row in enumerate(trace.rows):
        value = value_for(index, row.key, row.value_size) if row.op == "put" else b""
        op_code = _OP_CODES.get(row.op)
        if op_code is None:  # scan
            from ..services.wire import OP_SCAN

            op_code = OP_SCAN
        frames[row.client].append(encode_request(
            op_code, row.client, index + 1, row.key_bytes(), value,
            tenant=row.tenant,
        ))
    max_msg = max((len(f) for fs in frames.values() for f in fs), default=64)
    cluster = Cluster.build(
        n_nodes=1 + len(clients_ids), topology=topology,
        nic_type=proto.nic_type, fidelity="flow", seed=seed,
    )
    delivered: dict = {}
    counts: dict = {}

    def receiver(i, tc, tag):
        n_msgs = len(frames[tc])
        ep = yield from proto.recv_setup(cluster.nodes[0], 1 + i, tag, max_msg, slots=n_msgs)
        for k in range(n_msgs):
            want = len(frames[tc][k])
            delivered[(tc, k)] = (yield from ep.recv_data(want))
        counts[tc] = ep.received

    def sender(i, tc, tag):
        ep = yield from proto.send_setup(cluster.nodes[1 + i], 0, tag, max_msg)
        for frame in frames[tc]:
            yield from ep.send(len(frame), frame)

    procs = []
    for i, tc in enumerate(clients_ids):
        if not frames[tc]:
            continue
        tag = 100 + i
        procs.append(spawn(cluster.sim, receiver(i, tc, tag), f"tr-r{i}"))
        procs.append(spawn(cluster.sim, sender(i, tc, tag), f"tr-s{i}"))
    cluster.sim.run(until=TRACE_SIM_DEADLINE_NS)
    stalled = not all(p.finished for p in procs)
    return delivered, counts, stalled


# ------------------------------------------------------------------- exemplars


def build_exemplar(name: str) -> Trace:
    """Regenerate a committed exemplar from scratch (record + transforms).

    Pure function of the pinned recipes below — ``trace record
    --exemplar NAME`` writes exactly the bytes committed under
    ``corpus/traces/`` (the codec unit tests assert this stays true).
    """
    from ..workloads import inject_flash_crowd, tenant_remap, time_scale

    if name == "steady-mix":
        trace, _stats = record_trace(
            seed=11,
            workload=WorkloadConfig(
                n_ops=240, n_keys=64, value_bytes=96, zipf_s=1.1,
                get_frac=0.55, put_frac=0.40, mode="open",
                mean_interarrival_ns=2500.0, rng_stream="kv-trace-steady",
            ),
            client_tenants=(0, 0, 0),
            source="exemplar:steady-mix",
        )
        return trace
    if name == "flash-crowd":
        base, _stats = record_trace(
            seed=12,
            workload=WorkloadConfig(
                n_ops=200, n_keys=48, value_bytes=96, zipf_s=1.2,
                get_frac=0.80, put_frac=0.18, mode="open",
                mean_interarrival_ns=3000.0, rng_stream="kv-trace-flash",
            ),
            client_tenants=(1, 1, 2),
            source="exemplar:flash-crowd",
        )
        # The aggressor's flash crowd: a dense GET burst on the Zipf-
        # hottest key from a fourth (new) client in tenant 2, landing
        # mid-trace.  Client id picks the next free (node 4, index 3)
        # endpoint id so replay maps it onto its own pool client.
        from ..services.kv import client_id_of

        crowd_start = base.rows[len(base.rows) // 3].timestamp_ns
        return inject_flash_crowd(
            key="k000000", start_ns=crowd_start, n_ops=100,
            spacing_ns=250.0, client=client_id_of(4, 3), tenant=2,
        )(time_scale(1.0)(base))
    raise KeyError(f"unknown exemplar {name!r} (have {EXEMPLAR_NAMES})")


def _load_trace_arg(ref: str) -> Trace:
    """A CLI trace argument: exemplar name or path to a trace file."""
    if ref in EXEMPLARS:
        return load_exemplar(ref)
    return Trace.load(ref)


# ------------------------------------------------------------------- trace CLI


def trace_main(argv: Optional[list] = None) -> int:
    """``rvma-experiments trace``: record / replay / transform / compare."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments trace",
        description="Trace-driven workload record and bit-identical replay",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_info = sub.add_parser("info", help="describe a trace file or exemplar")
    p_info.add_argument("trace", help=f"trace path or exemplar ({', '.join(EXEMPLAR_NAMES)})")

    p_rec = sub.add_parser("record", help="record a LoadGenerator run into a trace")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument("--ops", type=int, default=200)
    p_rec.add_argument("--mode", choices=("open", "closed"), default="open")
    p_rec.add_argument("--exemplar", choices=EXEMPLAR_NAMES, default=None,
                       help="regenerate a committed exemplar recipe instead")
    p_rec.add_argument("--out", required=True, help="output trace path")

    p_rep = sub.add_parser("replay", help="replay a trace against a live KV cluster")
    p_rep.add_argument("trace")
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--qos", action="store_true")
    p_rep.add_argument("--active", action="store_true")
    p_rep.add_argument("--no-audit", action="store_true")
    p_rep.add_argument("--max-backlog", type=int, default=None)
    p_rep.add_argument("--report-out", default=None,
                       help="write the wall-scrubbed RunReport JSON here")

    p_tr = sub.add_parser("transform", help="apply pure transforms to a trace")
    p_tr.add_argument("trace")
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--time-scale", type=float, default=None)
    p_tr.add_argument("--amplify", type=float, default=None)
    p_tr.add_argument("--idle-threshold-ns", type=float, default=10_000.0)
    p_tr.add_argument("--diurnal-period-ns", type=float, default=None)
    p_tr.add_argument("--diurnal-amplitude", type=float, default=0.5)
    p_tr.add_argument("--flash-key", default=None)
    p_tr.add_argument("--flash-start-ns", type=float, default=0.0)
    p_tr.add_argument("--flash-ops", type=int, default=50)
    p_tr.add_argument("--flash-spacing-ns", type=float, default=500.0)
    p_tr.add_argument("--flash-client", type=int, default=None)
    p_tr.add_argument("--flash-tenant", type=int, default=0)
    p_tr.add_argument("--tenant-remap", default=None,
                      help='comma list of old:new pairs, e.g. "0:1,2:3"')

    p_cmp = sub.add_parser("compare", help="base vs qos-on vs active-on on one trace")
    p_cmp.add_argument("trace")
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--report-out", default=None,
                       help="write the merged wall-scrubbed RunReport JSON here")

    args = parser.parse_args(argv)

    if args.cmd == "info":
        trace = _load_trace_arg(args.trace)
        print(trace.describe())
        print(json.dumps(trace.provenance, indent=2, sort_keys=True))
        return 0

    if args.cmd == "record":
        if args.exemplar:
            trace = build_exemplar(args.exemplar)
        else:
            trace, stats = record_trace(
                seed=args.seed,
                workload=WorkloadConfig(n_ops=args.ops, mode=args.mode),
            )
            print(f"recorded {stats.ops_issued} offered ops")
        trace.save(args.out)
        print(f"{args.out}: {trace.describe()}")
        return 0

    if args.cmd == "transform":
        from ..workloads import (
            amplify_bursts,
            compose,
            diurnal_ramp,
            inject_flash_crowd,
            tenant_remap,
            time_scale,
        )

        trace = _load_trace_arg(args.trace)
        steps = []
        # Fixed, documented application order (docs/WORKLOADS.md).
        if args.time_scale is not None:
            steps.append(time_scale(args.time_scale))
        if args.amplify is not None:
            steps.append(amplify_bursts(args.amplify, args.idle_threshold_ns))
        if args.diurnal_period_ns is not None:
            steps.append(diurnal_ramp(args.diurnal_period_ns, args.diurnal_amplitude))
        if args.flash_key is not None:
            if args.flash_client is None:
                parser.error("--flash-key requires --flash-client")
            steps.append(inject_flash_crowd(
                args.flash_key, args.flash_start_ns, args.flash_ops,
                args.flash_spacing_ns, args.flash_client, args.flash_tenant,
            ))
        if args.tenant_remap is not None:
            mapping = {}
            for pair in args.tenant_remap.split(","):
                old, new = pair.split(":")
                mapping[int(old)] = int(new)
            steps.append(tenant_remap(mapping))
        out = compose(*steps)(trace)
        out.save(args.out)
        print(f"{trace.trace_id} -> {out.trace_id}: {out.describe()}")
        return 0

    if args.cmd == "replay":
        trace = _load_trace_arg(args.trace)
        cell = replay_trace(
            trace, seed=args.seed, qos=args.qos, active=args.active,
            audit=not args.no_audit, observe=args.report_out is not None,
            max_backlog=args.max_backlog,
        )
        print(
            f"replayed {trace.trace_id} seed={args.seed} "
            f"qos={'on' if args.qos else 'off'} active={'on' if args.active else 'off'}: "
            f"{cell.stats.ops_completed}/{cell.stats.ops_issued} ops, "
            f"p99 {cell.p99_ns:,.0f} ns, outcomes {cell.outcome_digest}"
        )
        if cell.safety_failures:
            for failure in cell.safety_failures[:10]:
                print(f"  SAFETY: {failure}")
        print(f"invariants: {'ok' if cell.invariants_ok else 'VIOLATED'}")
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as fh:
                json.dump(cell.report, fh, indent=2, sort_keys=True)
            print(f"report written to {args.report_out}")
        return 0 if cell.invariants_ok else 1

    if args.cmd == "compare":
        trace = _load_trace_arg(args.trace)
        out = compare_trace(trace, seed=args.seed,
                            observe=args.report_out is not None)
        print(f"compare {out.trace_id} seed={out.seed} (identical offered load: "
              f"{'yes' if out.offered_identical else 'NO'})")
        for label, cell in (("base", out.base), ("qos-on", out.qos_on),
                            ("active-on", out.active_on)):
            print(
                f"  {label:10s} p99 {cell.p99_ns:>12,.0f} ns  "
                f"host dispatches {cell.requests:>5d}  served {cell.served:>4d}  "
                f"shed {sum(cell.tenant_shed.values()):>4d}  "
                f"outcomes {cell.outcome_digest}"
            )
        print(
            f"qos contrast: {'ok' if out.qos_contrast_ok else 'NO'}; "
            f"active contrast: {'ok' if out.active_contrast_ok else 'NO'} "
            f"(dispatch saving {out.dispatch_saving}); "
            f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}"
        )
        if args.report_out:
            from ..scenarios.runner import scrub_report

            reports = [
                RunReport.collect(cell.cluster, meta={
                    "harness": "trace-compare", "cell": label,
                    "trace_id": out.trace_id, "seed": out.seed,
                })
                for label, cell in (("base", out.base), ("qos_on", out.qos_on),
                                    ("active_on", out.active_on))
            ]
            merged = scrub_report(RunReport.merge(
                reports, meta={"harness": "trace-compare", "trace_id": out.trace_id},
            ).to_dict())
            with open(args.report_out, "w", encoding="utf-8") as fh:
                json.dump(merged, fh, indent=2, sort_keys=True)
            print(f"merged report written to {args.report_out}")
        ok = out.invariants_ok and out.qos_contrast_ok and out.active_contrast_ok
        return 0 if ok else 1

    parser.error(f"unknown command {args.cmd!r}")
    return 2
