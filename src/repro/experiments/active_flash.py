"""Hot-key flash crowd: active mailboxes vs host-dispatch serving.

The adversarial cell for :mod:`repro.nic.active`: a GET-heavy Zipf
flash crowd hammers a handful of hot keys on a sharded KV service with
finite host serving capacity.  Each seed runs the identical workload
twice — active handlers **off** (every GET sweeps through the host
dispatch loop) and **on** (the NIC's KV serve handler answers hot-key
GETs from its read-only view, tombstoning the frame so the host never
sees it) — and reports the contrast:

* tail latency: active-on p99 must beat active-off p99 (hot GETs skip
  the host service queue entirely);
* dispatch saving: ``service.kv.requests`` must drop by at least the
  NIC's ``nic.rvma.active.served`` count — every served GET is one
  fewer host dispatch, byte-for-byte the same reply.

A ``kv-incast`` variant runs the same contrast under a closed-loop
batch GET storm (many clients, all-hot key set), and a chaos cell
re-runs the active-on flash crowd under link flaps with the
:class:`~repro.recovery.auditor.InvariantAuditor` armed — handler
effects must stay byte-identical through retransmits and replay.

Also the home of the ``active`` CLI subcommand, one cell
(``rvma-experiments active --help``); the sweep is the
``active-flash`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..services import ClientRobustnessConfig, WorkloadConfig
from .kv_cell import COSTED_SERVICE, ClientGroup, FlapPlan, KvCellResult, KvCellSpec, run_kv_cell
from .report import ExperimentResult

#: Hot-key count; ranks 0..N-1 of the Zipf popularity order, which is
#: exactly where a skewed flash crowd concentrates.
DEFAULT_HOT_KEYS = 4


def hot_key_set(n_hot: int = DEFAULT_HOT_KEYS) -> tuple:
    """The workload's hottest *n_hot* keys (LoadGenerator's rank naming)."""
    return tuple(b"k%06d" % rank for rank in range(n_hot))


@dataclass
class FlashOutcome:
    """One seed's flash-crowd contrast cell (active off vs on)."""

    seed: int
    variant: str  # "flash" | "incast"
    off: KvCellResult
    on: KvCellResult

    @property
    def dispatch_saving(self) -> int:
        """Host dispatches avoided by the NIC serve path."""
        return self.off.requests - self.on.requests

    @property
    def speedup(self) -> float:
        if self.on.p99_ns <= 0:
            return float("inf")
        return self.off.p99_ns / self.on.p99_ns

    @property
    def invariants_ok(self) -> bool:
        """Liveness + integrity on both sides of the contrast."""
        return bool(
            self.off.invariants_ok and self.on.invariants_ok
            and self.off.served == 0  # active off must not serve
        )

    @property
    def contrast_ok(self) -> bool:
        """The acceptance contrast: faster tail, fewer host dispatches.

        Every NIC-served GET must account for at least one host dispatch
        the off cell paid for (``dispatch_saving >= served > 0``).
        """
        return bool(
            self.on.p99_ns < self.off.p99_ns
            and self.on.served > 0
            and self.dispatch_saving >= self.on.served
            and self.on.handler_served >= self.on.served
        )


def _run_cell(
    seed: int,
    active: bool,
    workload: WorkloadConfig,
    n_hot: int,
    n_server_nodes: int,
    shards_per_node: int,
    n_client_nodes: int,
    clients_per_node: int,
    chaos: bool = False,
) -> KvCellResult:
    """One run: warm the hot keys, then drive the flash-crowd load.

    With *chaos*, link flaps land while the crowd arrives: the open-loop
    arrivals span about ``n_ops`` mean interarrival gaps, window starts
    are drawn over that span, and each window lasts at most a quarter
    of it.
    """
    hot = hot_key_set(n_hot)
    traffic_ns = workload.n_ops * workload.mean_interarrival_ns
    return run_kv_cell(KvCellSpec(
        groups=(ClientGroup(
            workload, nodes=n_client_nodes, clients_per_node=clients_per_node,
            robustness=ClientRobustnessConfig() if chaos else None,
        ),),
        seed=seed,
        servers=n_server_nodes,
        shards_per_node=shards_per_node,
        server_config=replace(COSTED_SERVICE, hot_keys=hot if active else ()),
        chaos=FlapPlan(traffic_ns, 4, traffic_ns / 4, drop_prob=0.02) if chaos else None,
        audit=chaos,
        # One PUT per hot key before the crowd: the executing host syncs
        # each value into the NIC view (when active), so the crowd's GETs
        # find a servable entry — identical bytes either way.
        warm=tuple((key, b"hot%03d" % i * 16) for i, key in enumerate(hot)),
        drain_ns=100_000.0,
        deadline_ns=200_000_000.0,
    ))


def _flash_workload(n_hot: int, n_ops: int, deadline_ns: Optional[float]) -> WorkloadConfig:
    """GET-heavy open-loop Zipf crowd concentrated on the hot ranks."""
    return WorkloadConfig(
        n_ops=n_ops, n_keys=max(6 * n_hot, 16), value_bytes=96, zipf_s=1.2,
        get_frac=0.94, put_frac=0.06, mode="open",
        mean_interarrival_ns=900.0, deadline_ns=deadline_ns,
        rng_stream="kv-flash",
    )


def _incast_workload(n_hot: int, n_ops: int, deadline_ns: Optional[float]) -> WorkloadConfig:
    """Closed-loop batch GET storm; the key set is nothing but hot keys."""
    return WorkloadConfig(
        n_ops=n_ops, n_keys=n_hot, value_bytes=96, zipf_s=0.0,
        get_frac=0.97, put_frac=0.03, mode="closed", batch=8,
        deadline_ns=deadline_ns, rng_stream="kv-incast",
    )


def run_flash_crowd(
    seed: int = 1,
    n_hot: int = DEFAULT_HOT_KEYS,
    n_ops: int = 260,
    variant: str = "flash",
    n_server_nodes: int = 2,
    shards_per_node: int = 2,
    n_client_nodes: int = 3,
    clients_per_node: int = 2,
) -> FlashOutcome:
    """Run one seed's contrast cell: active off, then on, same workload.

    Both runs share cluster/seed/workload wiring; the only difference
    is ``KvServerConfig.hot_keys`` — so the contrast measures the NIC
    serve path and nothing else.
    """
    if variant == "incast":
        workload = _incast_workload(n_hot, n_ops, deadline_ns=None)
    else:
        workload = _flash_workload(n_hot, n_ops, deadline_ns=None)
    kw = dict(
        workload=workload, n_hot=n_hot, n_server_nodes=n_server_nodes,
        shards_per_node=shards_per_node, n_client_nodes=n_client_nodes,
        clients_per_node=clients_per_node,
    )
    off = _run_cell(seed, active=False, **kw)
    on = _run_cell(seed, active=True, **kw)
    return FlashOutcome(seed=seed, variant=variant, off=off, on=on)


def run_flash_chaos(
    seed: int = 1,
    n_hot: int = DEFAULT_HOT_KEYS,
    n_ops: int = 200,
) -> KvCellResult:
    """Active-on flash crowd under link flaps with the auditor shadowing
    every placement/completion — handler rewrites and injected replies
    must keep epoch bytes identical through retransmits."""
    return _run_cell(
        seed, active=True,
        workload=_flash_workload(n_hot, n_ops, deadline_ns=8_000_000.0),
        n_hot=n_hot, n_server_nodes=2, shards_per_node=2,
        n_client_nodes=3, clients_per_node=2, chaos=True,
    )


def run_flash_sweep(seeds: tuple = (1, 2, 3), **kw) -> ExperimentResult:
    """The contrast sweep: flash + incast variants, then a chaos cell.

    Passes when every seed's both variants show the acceptance contrast
    (active-on p99 < active-off p99, ``dispatch_saving >= served > 0``)
    and the chaos cell survives with a clean audit.
    """
    rows = []
    all_ok = True
    contrast_ok = True
    chaos_ok = True
    for seed in seeds:
        for variant in ("flash", "incast"):
            out = run_flash_crowd(seed=seed, variant=variant, **kw)
            all_ok = all_ok and out.invariants_ok
            contrast_ok = contrast_ok and out.contrast_ok
            rows.append([
                seed,
                variant,
                f"{out.off.p99_ns:,.0f}",
                f"{out.on.p99_ns:,.0f}",
                f"{out.speedup:.2f}",
                out.on.served,
                out.dispatch_saving,
                out.on.handler_served,
                "yes" if out.invariants_ok else "NO",
                "yes" if out.contrast_ok else "no",
            ])
        chaos = run_flash_chaos(seed=seed)
        survived = chaos.invariants_ok and chaos.served > 0
        chaos_ok = chaos_ok and survived
        rows.append([
            seed, "chaos",
            "-", f"{chaos.p99_ns:,.0f}", "-",
            chaos.served, "-", chaos.handler_served,
            "yes" if survived else "NO",
            "audit" if chaos.audit_ok else f"{chaos.audit_violations} violations",
        ])
    return ExperimentResult(
        name="active-flash",
        title="Hot-key flash crowd: NIC-served GETs vs host dispatch, active on/off",
        headers=[
            "seed", "variant", "off p99 ns", "on p99 ns", "speedup",
            "served", "saved", "client", "ok", "contrast",
        ],
        rows=rows,
        summary={
            "all_invariants_ok": all_ok,
            "contrast_ok": contrast_ok,
            "chaos_ok": chaos_ok,
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "attaching compute to the mailbox threshold "
            "crossing extends RVMA's receiver-managed completion into "
            "compute-on-arrival: hot-key GETs resolve at the NIC with the "
            "host sweep loop never dispatched, byte-identical to the "
            "host-served reply"
        },
    )


# ---------------------------------------------------------------- active CLI


def add_active_command(sub, parents: list) -> None:
    """Add ``rvma-experiments active``: run one flash-crowd cell."""
    parser = sub.add_parser(
        "active", parents=parents, help="run one hot-key flash-crowd cell",
        description="Hot-key flash-crowd cell for NIC-side active mailboxes",
    )
    parser.add_argument(
        "--variant", choices=("flash", "incast"), default="flash",
        help="workload shape of the contrast cell",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="active-on under link flaps with the auditor armed",
    )
    parser.set_defaults(handler=_active)


def _active(args) -> int:
    seed = args.seed if args.seed is not None else 1
    if args.chaos:
        chaos = run_flash_chaos(seed=seed)
        print(
            f"active-chaos seed={seed}: served {chaos.served}, "
            f"client handler replies {chaos.handler_served}, "
            f"p99 {chaos.p99_ns:,.0f} ns, "
            f"audit {'ok' if chaos.audit_ok else f'{chaos.audit_violations} VIOLATIONS'}"
        )
        return 0 if chaos.invariants_ok and chaos.served > 0 else 1
    out = run_flash_crowd(seed=seed, variant=args.variant)
    print(
        f"active-flash seed={out.seed} variant={out.variant}: "
        f"p99 {out.off.p99_ns:,.0f} ns off vs {out.on.p99_ns:,.0f} ns on "
        f"(speedup {out.speedup:.2f}), served {out.on.served}, "
        f"host dispatches saved {out.dispatch_saving}"
    )
    print(
        f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}; "
        f"contrast: {'yes' if out.contrast_ok else 'NO'}"
    )
    return 0 if out.invariants_ok and out.contrast_ok else 1
