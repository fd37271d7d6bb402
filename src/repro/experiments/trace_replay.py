"""Trace replay harness: the same recorded load, every protocol variant.

Everything here drives one contract: a :class:`~repro.workloads.Trace`
replayed under any combination of feature toggles (QoS on/off, active
mailboxes on/off) and — at the frame level — wire backend
(rvma/verbs/ucx) offers *bit-identical* load, so whatever differs
between two runs is the variant under test, never the workload.

Four entry points:

* :func:`record_trace` — a KV cell (:mod:`.kv_cell`) driving a stock
  :class:`LoadGenerator` workload with a :class:`TraceRecorder`
  attached freezes the offered ops into a trace (the exemplars under
  ``corpus/traces/`` come from here);
* :func:`replay_trace` — a KV cell replaying a trace against a live
  sharded KV cluster: outcomes, per-key safety verdicts and metrics;
* :func:`compare_trace` — replay the same trace base vs QoS-on vs
  active-on and assert the documented contrasts on identical offered
  load (the ``trace compare`` CLI and CI wrap this);
* :func:`replay_trace_frames` — push every trace row's wire frame
  through one protocol backend on the channel driver
  (:func:`~repro.experiments.channels.run_channels`), for the
  rvma/verbs/ucx byte-identity differential.

Also home of the ``trace`` CLI subcommand
(``rvma-experiments trace --help``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..core.addressing import stable_hash64
from ..observability import RunReport, scrub_report
from ..services import ClientRobustnessConfig, TenantDirectory, TenantSpec, WorkloadConfig
from ..workloads import (
    EXEMPLAR_NAMES,
    EXEMPLARS,
    Trace,
    amplify_bursts,
    compose,
    diurnal_ramp,
    inject_flash_crowd,
    load_exemplar,
    request_frames,
    tenant_remap,
    time_scale,
)
from .active_flash import active_contrast_ok
from .channels import run_channels
from .kv_cell import COSTED_SERVICE, ClientGroup, KvCellResult, KvCellSpec, run_kv_cell

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
) -> KvCellResult:
    """Replay *trace* against a live sharded KV cluster.

    The cluster shape follows the trace: one server node plus one client
    node per distinct trace client, each pool client stamped with its
    trace client's tenant.  The warm phase (one PUT per hot key, hot set
    derived from the trace alone) runs in **every** cell — QoS on or
    off, active on or off — so toggles never change the offered load.
    """
    if not trace.clients():
        raise ValueError("cannot replay an empty trace")
    hot = hot_keys_of(trace, n_hot)
    cell = run_kv_cell(KvCellSpec(
        # Identical client wiring in EVERY cell: max_retries=0 keeps the
        # safety oracle's executed-once-or-not-at-all ambiguity model, and
        # arming robustness unconditionally means the qos toggle changes
        # only server-side policy, never the client reply path.
        groups=(ClientGroup(
            trace,
            robustness=ClientRobustnessConfig(
                max_retries=0, default_deadline_ns=TRACE_OP_DEADLINE_NS
            ),
            max_backlog=max_backlog,
        ),),
        seed=seed,
        shards_per_node=shards_per_node,
        server_config=replace(COSTED_SERVICE, hot_keys=hot if active else ()),
        topology=topology,
        audit=audit,
        spans=observe,
        tenants=_tenant_directory(trace) if qos else None,
        warm=tuple((key, warm_value_for(key.decode("latin-1"))) for key in hot),
        drain_ns=100_000.0,
        deadline_ns=sim_deadline_ns,
    ))
    if not check_safety:
        cell.safety_failures = []
    if observe:
        cell.run_report = RunReport.collect(cell.cluster, meta={
            "harness": "trace-replay",
            "trace_id": trace.trace_id,
            "seed": seed,
            "qos": qos,
            "active": active,
        })
    return cell


# ------------------------------------------------------------------- compare


@dataclass
class CompareOutcome:
    """The three-way contrast on one trace: base vs QoS-on vs active-on."""

    trace_id: str
    seed: int
    base: KvCellResult
    qos_on: KvCellResult
    active_on: KvCellResult
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
        """Active serving on identical load: :func:`active_contrast_ok`."""
        return active_contrast_ok(self.base, self.active_on)


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
    source: str = "loadgen",
) -> tuple:
    """Record a stock LoadGenerator run into a Trace; returns (trace, stats).

    One client node (one client) per entry in *client_tenants*; the
    trace's provenance pins the seed and the full workload shape, so a
    committed trace documents exactly how to regenerate itself.
    """
    workload = workload or WorkloadConfig(mode="open")
    cell = run_kv_cell(KvCellSpec(
        groups=(ClientGroup(workload, nodes=len(client_tenants), tenants=tuple(client_tenants)),),
        seed=seed,
        server_config=COSTED_SERVICE,
        drain_ns=100_000.0,
        record=True,
        deadline_ns=TRACE_SIM_DEADLINE_NS,
    ))
    if not cell.completed:
        raise RuntimeError(f"recording {cell.outcome}")
    trace = cell.recorder.finish(provenance={
        "seed": seed,
        "source": source,
        "workload": asdict(workload),
        "client_tenants": list(client_tenants),
        "transforms": [],
    })
    return trace, cell.stats


# ------------------------------------------------------------- frame differential


def replay_trace_frames(
    trace: Trace,
    backend: str,
    seed: int = 1,
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
    frames = request_frames(trace)
    channels = [
        (tc, 1 + i, 0, 100 + i, frames[tc])
        for i, tc in enumerate(trace.clients())
        if frames[tc]
    ]
    max_msg = max((len(f) for fs in frames.values() for f in fs), default=64)
    delivered, counts, stalled, _cluster = run_channels(
        backend, channels, 1 + len(frames), "star", seed, max_msg, TRACE_SIM_DEADLINE_NS,
    )
    return delivered, counts, stalled


# ------------------------------------------------------------------- exemplars


def build_exemplar(name: str) -> Trace:
    """Regenerate a committed exemplar from scratch (record + transforms).

    Pure function of the pinned recipes below — ``trace record
    --exemplar NAME`` writes exactly the bytes committed under
    ``corpus/traces/`` (the codec unit tests assert this stays true).
    """
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


def add_trace_command(sub) -> None:
    """Add ``rvma-experiments trace``: record / replay / transform / compare."""
    parser = sub.add_parser(
        "trace", help="record, transform, replay and compare workload traces",
        description="Trace-driven workload record and bit-identical replay",
    )
    cmds = parser.add_subparsers(dest="trace_command", required=True)

    p_info = cmds.add_parser("info", help="describe a trace file or exemplar")
    p_info.add_argument("trace", help=f"trace path or exemplar ({', '.join(EXEMPLAR_NAMES)})")
    p_info.set_defaults(handler=_trace_info)

    p_rec = cmds.add_parser("record", help="record a LoadGenerator run into a trace")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument("--ops", type=int, default=200)
    p_rec.add_argument("--mode", choices=("open", "closed"), default="open")
    p_rec.add_argument("--exemplar", choices=EXEMPLAR_NAMES, default=None,
                       help="regenerate a committed exemplar recipe instead")
    p_rec.add_argument("--out", required=True, help="output trace path")
    p_rec.set_defaults(handler=_trace_record)

    p_rep = cmds.add_parser("replay", help="replay a trace against a live KV cluster")
    p_rep.add_argument("trace")
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--qos", action="store_true")
    p_rep.add_argument("--active", action="store_true")
    p_rep.add_argument("--no-audit", action="store_true")
    p_rep.add_argument("--max-backlog", type=int, default=None)
    p_rep.add_argument("--report-out", default=None,
                       help="write the wall-scrubbed RunReport JSON here")
    p_rep.set_defaults(handler=_trace_replay)

    p_tr = cmds.add_parser("transform", help="apply pure transforms to a trace")
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
    p_tr.set_defaults(handler=_trace_transform, error=parser.error)

    p_cmp = cmds.add_parser("compare", help="base vs qos-on vs active-on on one trace")
    p_cmp.add_argument("trace")
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--report-out", default=None,
                       help="write the merged wall-scrubbed RunReport JSON here")
    p_cmp.set_defaults(handler=_trace_compare)


def _trace_info(args) -> int:
    trace = _load_trace_arg(args.trace)
    print(trace.describe())
    print(json.dumps(trace.provenance, indent=2, sort_keys=True))
    return 0


def _trace_record(args) -> int:
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


def _trace_transform(args) -> int:
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
            args.error("--flash-key requires --flash-client")
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


def _trace_replay(args) -> int:
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


def _trace_compare(args) -> int:
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
