"""Chaos harness: motifs under randomized fault schedules.

The reliability layer (:mod:`repro.reliability`) claims RVMA traffic
survives loss, duplication, flapping links and partitions end-to-end.
This harness proves it the only way that counts — by running the real
motifs (allreduce, incast, halo3d) under composed
:class:`~repro.faults.chaos.ChaosSchedule` faults and checking the
invariants:

* **completion** — every rank finishes; the simulation terminates;
* **exactness** — application results are byte/count-identical to a
  fault-free run of the same seed (retransmission is invisible above
  the transport);
* **bounded recovery** — retransmissions stay within the per-message
  retry budget and no message is abandoned (``transport.gave_up == 0``);
* **no silent loss** — ``puts_lost`` and friends stay zero.

With ``n_crashes > 0`` the schedule additionally crash-stops nodes
mid-run (NIC state destroyed, not just traffic dropped) and the
:mod:`repro.recovery` stack — checkpoints, rejoin protocol, replay —
must bring them back; the :class:`~repro.recovery.auditor.InvariantAuditor`
shadows every placement and the run must finish byte-identical to a
fault-free run with **zero** violations.

The same entry points back ``tests/integration/test_chaos.py`` /
``test_crash_restart.py`` (fixed seed matrices) and the ``chaos`` /
``chaos-crash`` experiment CLI tables.
"""

from __future__ import annotations

from _blake2 import blake2s
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cluster.builder import Cluster
from ..faults.chaos import ChaosSchedule
from ..faults.injectors import FaultInjector
from ..motifs.allreduce import AllreduceMotif
from ..motifs.base import Motif, MotifResult
from ..motifs.halo3d import Halo3D
from ..motifs.incast import Incast
from ..motifs.transfer import RvmaProtocol
from ..network.config import NetworkConfig
from ..network.routing import RoutingMode
from ..nic.rvma import RvmaNicConfig
from ..observability import MetricsRegistry, RunReport
from ..recovery.auditor import InvariantAuditor
from ..recovery.rejoin import RecoveryConfig, RecoveryManager
from ..reliability.transport import ReliabilityConfig, hottest_retransmit_flows
from .report import ExperimentResult

#: Transport tuning for chaos runs: timeouts sized to the small-scale
#: motif RTTs, budget sized so backoff coverage exceeds the longest
#: schedulable window (ChaosSchedule caps windows; see its docstring).
CHAOS_RELIABILITY = ReliabilityConfig(
    retransmit_timeout=8_000.0,
    backoff_factor=2.0,
    max_backoff=250_000.0,
    max_retries=10,
    heartbeat_interval=20_000.0,
    min_suspicion_timeout=120_000.0,
)

#: Default schedule shape for the harness (overridable per call).
DEFAULT_HORIZON_NS = 400_000.0
DEFAULT_EVENTS = 4
DEFAULT_MAX_WINDOW_NS = 50_000.0


#: Default motif shapes for the chaos sweeps (the scenario fuzzer
#: overrides these per scenario via ``motif_params``).
DEFAULT_MOTIF_PARAMS = {
    "allreduce": {"iterations": 4, "vector_len": 4},
    "incast": {"msgs_per_client": 3, "msg_bytes": 2048},
    "halo3d": {"iterations": 2, "msg_bytes": 4096},
}


def _build_motif(name: str, cluster: Cluster, params: Optional[dict] = None) -> Motif:
    proto = RvmaProtocol()
    kw = dict(DEFAULT_MOTIF_PARAMS.get(name, {}))
    kw.update(params or {})
    if name == "allreduce":
        return AllreduceMotif(cluster, proto, **kw)
    if name == "incast":
        return Incast(cluster, proto, **kw)
    if name == "halo3d":
        return Halo3D(cluster, proto, **kw)
    raise ValueError(f"unknown chaos motif {name!r}")


def _fingerprint(name: str, motif: Motif, cluster: Cluster) -> tuple:
    """What must be identical between a chaotic and a fault-free run."""
    if name == "allreduce":
        return ("allreduce", tuple(sorted((r, tuple(v)) for r, v in motif.reduced.items())))
    # Incast/halo: every byte placed exactly once, every epoch completed.
    counters = MetricsRegistry.collect(cluster).counters
    return (
        name,
        counters.get("nic.rvma.bytes_placed", 0),
        counters.get("nic.rvma.epochs_completed", 0),
    )


def _state_fingerprint(name: str, motif: Motif, cluster: Cluster) -> tuple:
    """Application-state fingerprint for crash-restart comparisons.

    Under crash-restart the peers legally *re-place* bytes lost with the
    NIC, so placement counters exceed a fault-free run's even when the
    end state is perfect.  Instead compare what the application can
    observe: per (node, mailbox) the final epoch and every retained
    completed-epoch record (epoch, length, content digest) — plus the
    reduced vectors for allreduce.
    """
    if name == "allreduce":
        return ("allreduce", tuple(sorted((r, tuple(v)) for r, v in motif.reduced.items())))
    rows = []
    for node in cluster.nodes:
        lut = getattr(node.nic, "lut", None)
        if lut is None:
            continue
        for mailbox, entry in sorted(lut.entries.items()):
            retired = tuple(
                (
                    r.epoch,
                    r.length,
                    blake2s(
                        r.buffer.buffer.read(0, r.length) if r.length else b"",
                        digest_size=8,
                    ).hexdigest(),
                )
                for r in entry.retired
            )
            rows.append((node.node_id, mailbox, entry.epoch, retired))
    return (name, tuple(rows))


@dataclass
class ChaosOutcome:
    """One motif run under one chaos schedule."""

    motif: str
    seed: int
    reliability: bool
    completed: bool
    #: non-None when the run failed (deadlock / data-loss indicators).
    error: Optional[str]
    elapsed_ns: float
    deliveries_dropped: int
    retransmits: int
    acks: int
    dups_suppressed: int
    gave_up: int
    #: application results identical to the fault-free reference run.
    identical_to_clean: Optional[bool]
    schedule: list[str] = field(default_factory=list)
    hottest_flows: list = field(default_factory=list)
    #: crash-restart cycles the schedule injected.
    crash_restarts: int = 0
    #: rejoin handshakes completed (restarted node's hellos serviced).
    rejoins: int = 0
    #: send-journal coverage holes during replay (must be 0).
    replay_holes: int = 0
    #: runtime invariant auditor verdict (None: auditor not enabled).
    audit_violations: Optional[int] = None
    audit_report: Optional[dict] = None
    #: initiator give-up accounting (satellite visibility: silent loss
    #: paths that used to vanish into ``puts_lost``).
    put_giveups: int = 0
    #: observability snapshot (:class:`repro.observability.RunReport`),
    #: present when the run was invoked with ``observe=True``.
    run_report: Optional[object] = None
    #: the faulted run's cluster, for callers that report on it themselves.
    cluster: Optional[Cluster] = field(default=None, repr=False)

    @property
    def invariants_ok(self) -> bool:
        return bool(
            self.completed
            and self.error is None
            and self.gave_up == 0
            and self.identical_to_clean is not False
            and self.replay_holes == 0
            and not self.audit_violations
            and self.put_giveups == 0
        )


def run_motif_under_chaos(
    motif_name: str,
    seed: int = 1,
    n_nodes: int = 8,
    topology: str = "dragonfly",
    reliability: bool = True,
    reliability_config: Optional[ReliabilityConfig] = None,
    n_events: int = DEFAULT_EVENTS,
    horizon_ns: float = DEFAULT_HORIZON_NS,
    max_window_ns: float = DEFAULT_MAX_WINDOW_NS,
    drop_prob: float = 0.05,
    compare_clean: bool = True,
    configure: Optional[Callable[[FaultInjector], None]] = None,
    n_crashes: int = 0,
    audit: Optional[bool] = None,
    recovery: bool = True,
    recovery_config: Optional[RecoveryConfig] = None,
    observe: bool = False,
    trace: bool = False,
    schedule: Optional[ChaosSchedule] = None,
    routing: Optional[RoutingMode] = None,
    motif_params: Optional[dict] = None,
    before_run: Optional[Callable[[Cluster], None]] = None,
) -> ChaosOutcome:
    """Run one motif under a generated chaos schedule and audit it.

    ``reliability=False`` runs the identical schedule on the unprotected
    NICs — the regression guard that the faults *are* harmful (the run
    stalls or loses data without the transport).

    ``n_crashes > 0`` adds crash-restart events to the schedule and arms
    the full :mod:`repro.recovery` stack (checkpoints + rejoin +
    replay).  ``audit`` attaches the
    :class:`~repro.recovery.auditor.InvariantAuditor` (defaults to on
    exactly when crashes are injected); crash runs compare against the
    clean reference by *application state* rather than placement
    counters, since sanctioned replay legally re-places bytes.
    ``recovery=False`` crashes without the recovery stack — the
    regression guard that an amnesiac restart alone is *not* enough.

    ``observe=True`` attaches the observability layer and returns a
    :class:`repro.observability.RunReport` in ``ChaosOutcome.run_report``;
    ``trace=True`` additionally enables span recording in every category
    (the report then carries per-category rollups and hottest spans).

    The scenario fuzzer (:mod:`repro.scenarios`) drives this entry
    point with a fully pinned plan: ``schedule`` replaces the generated
    one, ``routing``/``motif_params`` pin the network mode and workload
    shape, and ``before_run`` is called with the built cluster just
    before the motif starts (the runner opens its ``scenario`` span
    there).
    """
    nic_config = RvmaNicConfig(
        reliability=(reliability_config or CHAOS_RELIABILITY) if reliability else None
    )
    net_config = NetworkConfig(routing=routing) if routing is not None else None
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=nic_config, net_config=net_config,
    )
    if audit is None:
        audit = n_crashes > 0
    auditor = InvariantAuditor().attach(cluster) if audit else None
    injector = FaultInjector(cluster)
    manager: Optional[RecoveryManager] = None
    if n_crashes > 0 and reliability and recovery:
        manager = RecoveryManager(
            cluster,
            recovery_config or RecoveryConfig(horizon_ns=horizon_ns),
        ).start()
        manager.arm(injector)
    if schedule is None:
        schedule = ChaosSchedule.generate(
            cluster, horizon_ns=horizon_ns, n_events=n_events,
            max_window_ns=max_window_ns, drop_prob=drop_prob, n_crashes=n_crashes,
        )
    schedule.apply(injector)
    if configure is not None:
        configure(injector)
    motif = _build_motif(motif_name, cluster, motif_params)
    if observe and trace:
        cluster.sim.spans.enable()
    if before_run is not None:
        before_run(cluster)

    error: Optional[str] = None
    result: Optional[MotifResult] = None
    run_span = cluster.sim.spans.begin("run", motif_name, seed=seed)
    try:
        result = motif.run()
    except RuntimeError as exc:  # deadlocked ranks or data-loss indicators
        error = str(exc)
    cluster.sim.spans.end(run_span, completed=error is None)

    counters = MetricsRegistry.collect(cluster).counters
    fingerprint = _state_fingerprint if n_crashes > 0 else _fingerprint
    identical: Optional[bool] = None
    if compare_clean and error is None:
        clean_cluster = Cluster.build(
            n_nodes=n_nodes, topology=topology, nic_type="rvma", fidelity="flow",
            seed=seed, nic_config=nic_config, net_config=net_config,
        )
        clean_motif = _build_motif(motif_name, clean_cluster, motif_params)
        clean_motif.run()
        identical = fingerprint(motif_name, motif, cluster) == fingerprint(
            motif_name, clean_motif, clean_cluster
        )
    return ChaosOutcome(
        motif=motif_name,
        seed=seed,
        reliability=reliability,
        completed=error is None,
        error=error,
        elapsed_ns=result.elapsed if result is not None else float("nan"),
        deliveries_dropped=counters["fabric.deliveries_dropped"],
        retransmits=counters.get("transport.retransmits", 0),
        acks=counters.get("transport.acks_tx", 0),
        dups_suppressed=counters.get("transport.dups_suppressed", 0),
        gave_up=counters.get("transport.gave_up", 0),
        identical_to_clean=identical,
        schedule=schedule.describe(),
        hottest_flows=hottest_retransmit_flows(cluster, k=5),
        crash_restarts=len(injector.log.restarts),
        rejoins=len(manager.report.rejoins) if manager is not None else 0,
        replay_holes=len(manager.report.replay_holes) if manager is not None else 0,
        audit_violations=len(auditor.violations) if auditor is not None else None,
        audit_report=auditor.report() if auditor is not None else None,
        put_giveups=counters.get("nic.rvma.put_giveups", 0),
        run_report=(
            RunReport.collect(
                cluster,
                meta={
                    "harness": "chaos",
                    "motif": motif_name,
                    "seed": seed,
                    "n_nodes": n_nodes,
                    "n_crashes": n_crashes,
                    "drop_prob": drop_prob,
                    "completed": error is None,
                },
            )
            if observe
            else None
        ),
        cluster=cluster,
    )


#: The ``exact`` column: identical to the fault-free run, or not compared.
_EXACT = {True: "yes", False: "NO", None: "-"}


def run_chaos(
    seeds: tuple = (1, 2, 3),
    motifs: tuple = ("allreduce", "incast", "halo3d"),
    n_nodes: int = 8,
    **kw,
) -> ExperimentResult:
    """The chaos sweep: every motif x every seed, invariants audited."""
    outs = [
        run_motif_under_chaos(motif, seed=seed, n_nodes=n_nodes, **kw)
        for motif in motifs
        for seed in seeds
    ]
    return ExperimentResult(
        name="chaos",
        title=f"Chaos harness: motifs under composed fault schedules ({n_nodes} nodes)",
        headers=["motif", "seed", "drops", "retransmits", "dups", "completed", "exact"],
        rows=[
            [
                out.motif,
                out.seed,
                out.deliveries_dropped,
                out.retransmits,
                out.dups_suppressed,
                "yes" if out.completed else "NO",
                _EXACT[out.identical_to_clean],
            ]
            for out in outs
        ],
        summary={
            "all_invariants_ok": all(out.invariants_ok for out in outs),
            "total_retransmits": sum(out.retransmits for out in outs),
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "reliability owned in the transport lets RVMA traffic "
            "survive lossy fabrics end-to-end (RAMC-style layering; extends §IV-F)"
        },
        run_reports=[out.run_report for out in outs if out.run_report is not None],
    )


def run_crash_restart(
    seeds: tuple = (1, 2, 3),
    motifs: tuple = ("allreduce", "incast", "halo3d"),
    n_nodes: int = 8,
    n_crashes: int = 1,
    drop_prob: float = 0.05,
    **kw,
) -> ExperimentResult:
    """The crash-restart sweep: motifs survive a mid-run node crash.

    Every cell crash-stops ``n_crashes`` random nodes (NIC state
    destroyed) on top of the usual fabric chaos, recovers them through
    the checkpoint/rejoin/replay stack, and audits with the runtime
    invariant auditor.  A cell passes only if the run completes
    byte-identical to fault-free with zero violations, zero replay
    holes and zero initiator give-ups.
    """
    outs = [
        run_motif_under_chaos(
            motif, seed=seed, n_nodes=n_nodes, n_crashes=n_crashes, drop_prob=drop_prob, **kw
        )
        for motif in motifs
        for seed in seeds
    ]
    return ExperimentResult(
        name="chaos-crash",
        title=(
            f"Crash-restart harness: motifs across node crash + "
            f"checkpoint/rejoin recovery ({n_nodes} nodes)"
        ),
        headers=[
            "motif", "seed", "crashes", "rejoins", "retransmits",
            "violations", "giveups", "completed", "exact",
        ],
        rows=[
            [
                out.motif,
                out.seed,
                out.crash_restarts,
                out.rejoins,
                out.retransmits,
                out.audit_violations if out.audit_violations is not None else "-",
                out.put_giveups,
                "yes" if out.completed else "NO",
                _EXACT[out.identical_to_clean],
            ]
            for out in outs
        ],
        summary={
            "all_invariants_ok": all(out.invariants_ok for out in outs),
            "total_audit_violations": sum(out.audit_violations or 0 for out in outs),
            "seeds": list(seeds),
            "n_crashes": n_crashes,
        },
        paper_claims={
            "observation": "retained-epoch state plus host-side journals makes "
            "§IV-F rewind a full crash-restart story: a node can lose its NIC "
            "state mid-run and the cluster converges to the fault-free result"
        },
        run_reports=[out.run_report for out in outs if out.run_report is not None],
    )
