"""Noisy-neighbor isolation: multi-tenant QoS under an incast storm.

The adversarial cell for :mod:`repro.services.qos`: one aggressor
tenant open-loop floods the shard streams while a victim tenant runs a
steady Zipf workload.  Each seed runs the victim **solo** first (same
cluster, same seed, aggressor silent) to establish its baseline p99,
then the combined run, and reports the *isolation factor* — victim p99
combined over victim p99 solo.

With QoS armed (admission token buckets, RC_OVERLOAD shedding, DRR
weighted-fair sweeps, NIC placement quotas) the victim must stay within
a bounded factor of its solo latency while the aggressor is shed and
throttled; with QoS off the same cell must *show the violation* — that
contrast is the experiment's point, and the ``qos-noisy`` CI job
asserts both sides of it.

Liveness holds either way: clients run with deadlines + retries, so
every issued op resolves as ok / error / RC_OVERLOAD / deadline-
exceeded — :class:`~repro.services.LoadStats.all_resolved` is part of
the invariant.

Also the home of the ``qos`` CLI subcommand
(``rvma-experiments qos --help``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..nic.rvma import RvmaNicConfig
from ..observability import MetricsRegistry
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
    install_placement_quota,
)
from ..services.kv import REPLY_MAILBOX_BASE, REQUEST_MAILBOX_BASE
from ..sim.process import AllOf, spawn
from .chaos import CHAOS_RELIABILITY
from .report import ExperimentResult

#: Tenant ids for the two roles (0 stays the untenanted default).
VICTIM = 1
AGGRESSOR = 2

#: QoS-on isolation bound the CI job asserts: victim p99 combined must
#: stay within this factor of its solo baseline.
ISOLATION_BOUND = 2.0


@dataclass
class NoisyOutcome:
    """One seed's noisy-neighbor cell (solo baseline + combined run)."""

    seed: int
    qos: bool
    completed: bool
    error: Optional[str]
    victim_solo_p99_ns: float
    victim_p99_ns: float
    victim_stats: LoadStats
    aggressor_stats: LoadStats
    overload_replies: int
    quota_rejects: int
    retries: int
    victim_deadline_misses: int
    puts_lost: int
    puts_lost_quota: int
    events_executed: int = 0

    @property
    def isolation_factor(self) -> float:
        if self.victim_solo_p99_ns <= 0:
            return float("inf")
        return self.victim_p99_ns / self.victim_solo_p99_ns

    @property
    def resolved(self) -> bool:
        """Every issued op (both tenants) reached a terminal resolution."""
        return self.victim_stats.all_resolved() and self.aggressor_stats.all_resolved()

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity, independent of the isolation verdict.

        ``puts_lost`` may exceed zero only by the quota-shed count —
        anything beyond that is silent loss, QoS or not.
        """
        return bool(
            self.completed
            and self.error is None
            and self.resolved
            and self.puts_lost <= self.puts_lost_quota
        )

    @property
    def isolated(self) -> bool:
        """The QoS promise: bounded victim p99, no victim deadline misses."""
        return (
            self.isolation_factor <= ISOLATION_BOUND
            and self.victim_deadline_misses == 0
        )


def default_tenants() -> TenantDirectory:
    """The cell's tenant policy: favoured victim, throttled aggressor.

    The victim is unmetered (admission rate 0) and carries 4x the DRR
    weight; the aggressor gets a modest admission budget plus a NIC
    placement quota, so overload is shed at *both* enforcement points.
    """
    return TenantDirectory(
        tenants=(
            TenantSpec(VICTIM, "victim", weight=4.0),
            TenantSpec(
                AGGRESSOR,
                "aggressor",
                weight=1.0,
                admit_rate_bytes_per_us=96.0,
                admit_burst_bytes=4096.0,
                nic_quota_bytes_per_us=192.0,
                nic_quota_burst_bytes=8192.0,
            ),
        ),
        default=TenantSpec(0, "default", weight=1.0),
    )


def run_noisy_neighbor(
    seed: int = 1,
    qos: bool = True,
    n_server_nodes: int = 2,
    shards_per_node: int = 2,
    victim_nodes: int = 2,
    aggressor_nodes: int = 2,
    clients_per_node: int = 2,
    victim_ops: int = 160,
    aggressor_ops: int = 800,
    victim_interarrival_ns: float = 6000.0,
    aggressor_batch: int = 8,
    aggressor_value_bytes: int = 1024,
    deadline_ns: float = 2_000_000.0,
    aggressor_deadline_ns: float = 400_000.0,
    tenants: Optional[TenantDirectory] = None,
    sim_deadline_ns: float = 120_000_000.0,
) -> NoisyOutcome:
    """Run one seed's cell: victim solo, then victim + aggressor.

    Both runs use identical cluster/seed/tenant wiring — the only
    difference is whether the aggressor generator is driven — so the
    isolation factor measures the aggressor's interference and nothing
    else.  The aggressor is a closed-loop incast: every client keeps
    ``aggressor_batch`` large puts in flight back-to-back, the worst
    sustained pressure the pool can offer; its deadline is short so
    shed ops resolve fast and the storm stays dense.
    """
    tenants = tenants or default_tenants()
    solo_p99, _solo = _run_cell(
        seed, qos, tenants, n_server_nodes, shards_per_node, victim_nodes,
        aggressor_nodes, clients_per_node, victim_ops, 0,
        victim_interarrival_ns, aggressor_batch,
        aggressor_value_bytes, deadline_ns, aggressor_deadline_ns, sim_deadline_ns,
    )
    victim_p99, out = _run_cell(
        seed, qos, tenants, n_server_nodes, shards_per_node, victim_nodes,
        aggressor_nodes, clients_per_node, victim_ops, aggressor_ops,
        victim_interarrival_ns, aggressor_batch,
        aggressor_value_bytes, deadline_ns, aggressor_deadline_ns, sim_deadline_ns,
    )
    out.victim_solo_p99_ns = solo_p99
    out.victim_p99_ns = victim_p99
    return out


def _run_cell(
    seed: int,
    qos: bool,
    tenants: TenantDirectory,
    n_server_nodes: int,
    shards_per_node: int,
    victim_nodes: int,
    aggressor_nodes: int,
    clients_per_node: int,
    victim_ops: int,
    aggressor_ops: int,
    victim_interarrival_ns: float,
    aggressor_batch: int,
    aggressor_value_bytes: int,
    deadline_ns: float,
    aggressor_deadline_ns: float,
    sim_deadline_ns: float,
) -> tuple[float, NoisyOutcome]:
    n_nodes = n_server_nodes + victim_nodes + aggressor_nodes
    cluster = Cluster.build(
        n_nodes=n_nodes, topology="dragonfly", nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    victim_node_ids = list(range(n_server_nodes, n_server_nodes + victim_nodes))
    aggressor_node_ids = list(
        range(n_server_nodes + victim_nodes, n_nodes)
    )
    for node_id in victim_node_ids:
        tenants.assign_node(node_id, VICTIM)
    for node_id in aggressor_node_ids:
        tenants.assign_node(node_id, AGGRESSOR)

    # Finite serving capacity (modeled host CPU per request): without
    # it execution is instantaneous, no queue ever forms, and there is
    # nothing for an aggressor to steal or for QoS to protect.
    server_config = KvServerConfig(
        service_ns_per_request=800.0, service_ns_per_byte=0.2
    )
    shard_map = ShardMap(list(range(n_server_nodes)), shards_per_node)
    qos_config = QosConfig() if qos else None
    servers = [
        KvServer(
            cluster.nodes[n], shard_map, server_config,
            qos=qos_config, tenants=tenants if qos else None,
        ).start()
        for n in range(n_server_nodes)
    ]
    if qos:
        for n in range(n_server_nodes):
            install_placement_quota(
                cluster.nodes[n], tenants,
                mailbox_lo=REQUEST_MAILBOX_BASE, mailbox_hi=REPLY_MAILBOX_BASE,
            )

    robustness = ClientRobustnessConfig()

    def make_clients(node_ids: list, tenant: int, offset: int) -> list:
        return [
            KvClient(
                RvmaApi(cluster.nodes[n]), shard_map, index=offset + i,
                max_put_bytes=server_config.chunk_bytes,
                tenant_id=tenant, robustness=robustness,
            )
            for n in node_ids
            for i in range(clients_per_node)
        ]

    victim_clients = make_clients(victim_node_ids, VICTIM, 0)
    aggressor_clients = make_clients(aggressor_node_ids, AGGRESSOR, 0)

    victim_gen = LoadGenerator(
        cluster.sim, victim_clients,
        WorkloadConfig(
            n_ops=victim_ops, n_keys=96, value_bytes=64, zipf_s=0.9,
            mode="open", mean_interarrival_ns=victim_interarrival_ns,
            deadline_ns=deadline_ns, rng_stream="kv-victim",
        ),
    )
    aggressor_gen = LoadGenerator(
        cluster.sim, aggressor_clients,
        WorkloadConfig(
            n_ops=aggressor_ops, n_keys=32, value_bytes=aggressor_value_bytes,
            zipf_s=0.0, get_frac=0.1, put_frac=0.9, mode="closed",
            batch=aggressor_batch,
            deadline_ns=aggressor_deadline_ns, rng_stream="kv-aggressor",
        ),
    )

    def drive(gen: LoadGenerator, clients: list):
        for client in clients:
            yield from client.open()
        yield from gen.run()

    def master():
        procs = [spawn(cluster.sim, drive(victim_gen, victim_clients), "noisy-victim")]
        if aggressor_ops > 0:
            procs.append(
                spawn(cluster.sim, drive(aggressor_gen, aggressor_clients), "noisy-aggressor")
            )
        yield AllOf([p.done_future for p in procs])
        # Drain grace: retransmits for ops that resolved at their
        # deadline may still be in flight; let them land (as stale
        # duplicates) before the shard streams close, so shutdown
        # doesn't masquerade as put loss.
        yield 100_000.0
        for server in servers:
            server.stop()

    proc = spawn(cluster.sim, master(), "noisy-master")
    error: Optional[str] = None
    try:
        cluster.sim.run(until=sim_deadline_ns)
    except RuntimeError as exc:
        error = str(exc)
    if error is None and not proc.finished:
        error = (
            f"cell did not finish by sim_deadline_ns={sim_deadline_ns:,.0f} "
            "(an op stalled past its deadline machinery)"
        )

    registry = MetricsRegistry.collect(cluster.sim)
    victim_hist = registry.histograms.get(
        f"service.kv.tenant.request_latency_ns.t{VICTIM}"
    )
    victim_p99 = victim_hist.percentile(0.99) if victim_hist is not None else float("nan")
    counters = registry.counters
    outcome = NoisyOutcome(
        seed=seed,
        qos=qos,
        completed=proc.finished,
        error=error,
        victim_solo_p99_ns=float("nan"),
        victim_p99_ns=victim_p99,
        victim_stats=victim_gen.stats,
        aggressor_stats=aggressor_gen.stats,
        overload_replies=counters.get("service.kv.overload_replies", 0),
        quota_rejects=counters.get("nic.rvma.quota_rejects", 0),
        retries=counters.get("service.kv.client.retries", 0),
        victim_deadline_misses=counters.get(
            f"service.kv.tenant.deadline_misses.t{VICTIM}", 0
        ),
        puts_lost=counters.get("nic.rvma.puts_lost", 0),
        puts_lost_quota=counters.get("nic.rvma.puts_lost_quota", 0),
        events_executed=cluster.sim.events_executed,
    )
    return victim_p99, outcome


def run_noisy_sweep(seeds: tuple = (1, 2, 3), **kw) -> ExperimentResult:
    """The contrast sweep: every seed runs QoS on *and* off.

    Passes when each seed's QoS-on cell is isolated (bounded victim
    p99, zero victim deadline misses) and its QoS-off cell demonstrates
    the violation QoS exists to prevent.
    """
    rows = []
    all_ok = True
    contrast_ok = True
    for seed in seeds:
        on = run_noisy_neighbor(seed=seed, qos=True, **kw)
        off = run_noisy_neighbor(seed=seed, qos=False, **kw)
        all_ok = all_ok and on.invariants_ok and off.invariants_ok and on.isolated
        contrast_ok = contrast_ok and not off.isolated
        for out in (on, off):
            rows.append([
                seed,
                "on" if out.qos else "off",
                f"{out.victim_solo_p99_ns:,.0f}",
                f"{out.victim_p99_ns:,.0f}",
                f"{out.isolation_factor:.2f}",
                out.overload_replies,
                out.quota_rejects,
                out.victim_deadline_misses,
                "yes" if out.invariants_ok else "NO",
                "yes" if out.isolated else "no",
            ])
    return ExperimentResult(
        name="qos-noisy",
        title="Noisy-neighbor isolation: victim p99 vs solo baseline, QoS on/off",
        headers=[
            "seed", "qos", "solo p99 ns", "p99 ns", "factor",
            "shed", "quota", "misses", "ok", "isolated",
        ],
        rows=rows,
        summary={
            "all_invariants_ok": all_ok,
            "qos_off_shows_violation": contrast_ok,
            "isolation_bound": ISOLATION_BOUND,
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "mailbox-level quotas plus weighted-fair sweeps "
            "extend RVMA's receiver-managed backpressure to tenant isolation: "
            "an incast-storming neighbour is shed at admission and the NIC "
            "while the victim's tail stays within a small factor of solo"
        },
    )


# ------------------------------------------------------------------- qos CLI


def qos_main(argv: Optional[list[str]] = None) -> int:
    """``rvma-experiments qos``: run the noisy-neighbor cell or sweep."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments qos",
        description="Noisy-neighbor isolation cell for the multi-tenant KV service",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="pin to one seed (default: the 3-seed matrix for --sweep, 1 otherwise)",
    )
    parser.add_argument(
        "--seeds", type=str, default="",
        help="comma-separated seed list for --sweep (overrides --seed)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the QoS on/off contrast sweep and assert both sides",
    )
    parser.add_argument(
        "--no-qos", action="store_true",
        help="single cell only: run with QoS disabled (shows the violation)",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        if args.seeds:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        elif args.seed is not None:
            seeds = (args.seed,)
        else:
            seeds = (1, 2, 3)
        result = run_noisy_sweep(seeds=seeds)
        print(result.to_text())
        for key, value in result.summary.items():
            print(f"  {key}: {value}")
        ok = result.summary["all_invariants_ok"] and result.summary["qos_off_shows_violation"]
        return 0 if ok else 1

    out = run_noisy_neighbor(
        seed=args.seed if args.seed is not None else 1, qos=not args.no_qos
    )
    print(
        f"qos-noisy seed={out.seed} qos={'on' if out.qos else 'off'}: "
        f"victim p99 {out.victim_p99_ns:,.0f} ns vs solo "
        f"{out.victim_solo_p99_ns:,.0f} ns (factor {out.isolation_factor:.2f}), "
        f"shed {out.overload_replies}, quota rejects {out.quota_rejects}, "
        f"victim misses {out.victim_deadline_misses}"
    )
    print(
        f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}; "
        f"isolated: {'yes' if out.isolated else 'no'}"
        + (f" ({out.error})" if out.error else "")
    )
    return 0 if out.invariants_ok and (out.isolated or not out.qos) else 1
