"""Noisy-neighbor isolation: multi-tenant QoS under an incast storm.

The adversarial cell for :mod:`repro.services.qos`: one aggressor
tenant floods the shard streams closed-loop — every aggressor client
keeps a batch of large puts in flight back to back — while a victim
tenant runs a steady open-loop Zipf workload.  Each seed runs the
victim **solo** first (same cluster, same seed, aggressor silent) to
establish its baseline p99, then the combined run, and reports the
*isolation factor* — victim p99 combined over victim p99 solo.  Both
runs are :func:`~repro.experiments.kv_cell.run_kv_cell` specs with a
victim and an aggressor client group.

With QoS armed (admission token buckets, RC_OVERLOAD shedding, DRR
weighted-fair sweeps, NIC placement quotas) the victim must stay within
a bounded factor of its solo latency while the aggressor is shed and
throttled; with QoS off the same cell must *show the violation* — that
contrast is the experiment's point, and the ``kv-cells`` CI job
asserts both sides of it.

Liveness holds either way: clients run with deadlines + retries, so
every issued op resolves as ok / error / RC_OVERLOAD / deadline-
exceeded — :class:`~repro.services.LoadStats.all_resolved` is part of
the invariant.

The ``qos-noisy`` experiment runs the sweep; ``--seed N`` runs one seed,
whose two rows (QoS on, QoS off) print every number of its cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..services import ClientRobustnessConfig, TenantDirectory, TenantSpec, WorkloadConfig
from .kv_cell import COSTED_SERVICE, ClientGroup, KvCellResult, KvCellSpec, run_kv_cell
from .report import ExperimentResult

#: Tenant ids for the two roles (0 stays the untenanted default).
VICTIM = 1
AGGRESSOR = 2

#: QoS-on isolation bound the CI job asserts: victim p99 combined must
#: stay within this factor of its solo baseline.
ISOLATION_BOUND = 2.0


@dataclass
class NoisyOutcome(KvCellResult):
    """One seed's noisy-neighbor cell: the combined run's result plus the
    victim's solo baseline.  Groups are (victim, aggressor)."""

    seed: int = 1
    qos: bool = True
    victim_solo_p99_ns: float = float("nan")

    @property
    def victim_p99_ns(self) -> float:
        return self.tenant_p99_ns.get(VICTIM, float("nan"))

    @property
    def victim_deadline_misses(self) -> int:
        return self.counters.get(f"service.kv.tenant.deadline_misses.t{VICTIM}", 0)

    @property
    def isolation_factor(self) -> float:
        if self.victim_solo_p99_ns <= 0:
            return float("inf")
        return self.victim_p99_ns / self.victim_solo_p99_ns

    @property
    def resolved(self) -> bool:
        """Every issued op (both tenants) reached a terminal resolution."""
        return all(stats.all_resolved() for stats in self.group_stats)

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
    robustness = ClientRobustnessConfig()

    def cell(aggressor_load: int) -> KvCellResult:
        return run_kv_cell(KvCellSpec(
            groups=(
                ClientGroup(
                    WorkloadConfig(
                        n_ops=victim_ops, n_keys=96, value_bytes=64, zipf_s=0.9,
                        mode="open", mean_interarrival_ns=victim_interarrival_ns,
                        deadline_ns=deadline_ns, rng_stream="kv-victim",
                    ),
                    nodes=victim_nodes, clients_per_node=clients_per_node,
                    tenants=(VICTIM,) * victim_nodes, robustness=robustness,
                ),
                ClientGroup(
                    WorkloadConfig(
                        n_ops=aggressor_load, n_keys=32, value_bytes=aggressor_value_bytes,
                        zipf_s=0.0, get_frac=0.1, put_frac=0.9, mode="closed",
                        batch=aggressor_batch,
                        deadline_ns=aggressor_deadline_ns, rng_stream="kv-aggressor",
                    ),
                    nodes=aggressor_nodes, clients_per_node=clients_per_node,
                    tenants=(AGGRESSOR,) * aggressor_nodes, robustness=robustness,
                ),
            ),
            seed=seed,
            servers=n_server_nodes,
            shards_per_node=shards_per_node,
            server_config=COSTED_SERVICE,
            tenants=tenants if qos else None,
            placement_quota=qos,
            # Retransmits for ops that resolved at their deadline may
            # still be in flight; let them land as stale duplicates.
            drain_ns=100_000.0,
            deadline_ns=sim_deadline_ns,
        ))

    solo = cell(0)
    return NoisyOutcome(
        **vars(cell(aggressor_ops)), seed=seed, qos=qos,
        victim_solo_p99_ns=solo.tenant_p99_ns.get(VICTIM, float("nan")),
    )


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
