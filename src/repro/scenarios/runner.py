"""Scenario runner: bit-identical replay plus failure fingerprints.

One scenario document in, one :class:`ScenarioOutcome` out.  The runner
owns the oracle adapters:

* **motif scenarios** route through the chaos harness
  (:func:`repro.experiments.chaos.run_motif_under_chaos`) with the
  scenario's pinned :class:`~repro.faults.chaos.ChaosSchedule`, routing
  mode and workload shape — completion, exactness, auditor and
  replay-hole invariants all apply;
* **kv scenarios** replay the pinned per-client op scripts against the
  sharded service — a KV cell of :mod:`repro.experiments.kv_cell` whose
  client group is driven by scripts — and check per-key linearizability
  exactly (keys are partitioned per client, so each script's local
  model is the single valid linearization);
* **trace scenarios** replay a committed exemplar trace
  (:func:`repro.experiments.trace_replay.replay_trace`);
* **differential scenarios** drive the pinned channel matrix through
  every compared protocol backend
  (:func:`repro.experiments.channels.run_channels`) and demand
  byte-identical delivery.

Failures collapse to a :class:`FailureFingerprint` — a sorted tuple of
*coarse* component strings (exception type, invariant name, auditor
violation kind, differential divergence digest, ``stall``).  A KV
cell's typed run outcome supplies ``stall`` and ``exception:<Type>``,
as does any oracle that raises; no component is read out of error
text.  Coarseness is load
bearing: the auto-shrinker must be able to shrink a scenario without
the fingerprint drifting, so fingerprints never include payload bytes,
node ids or timestamps.

Replay determinism: the simulator is deterministic per seed and the
runner scrubs wall-clock fields from the attached RunReport, so
replaying the same document twice produces **byte-identical** report
JSON.  The document's ``engine`` field is accepted and ignored.
"""

from __future__ import annotations

from _blake2 import blake2s
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..cluster.builder import Cluster
from ..experiments.channels import run_channels
from ..experiments.kv_cell import ClientGroup, Crashed, KvCellSpec, Stalled, run_kv_cell
from ..faults.chaos import ChaosSchedule
from ..network.routing import RoutingMode
from ..nic.active import AtomicWordHandler
from ..observability import RunReport, scrub_report
from ..services import ClientRobustnessConfig, KvServerConfig
from ..workloads.replayer import ABSENT, apply_kv_step
from .schema import Scenario

#: Engine-run ceilings: a stalled scenario must terminate, not spin.
MOTIF_DEADLINE_NS = 50_000_000.0
KV_DEADLINE_NS = 80_000_000.0
DIFF_DEADLINE_NS = 50_000_000.0

_ROUTING = {"static": RoutingMode.STATIC, "adaptive": RoutingMode.ADAPTIVE}


@dataclass(frozen=True)
class FailureFingerprint:
    """Coarse, shrink-stable identity of a scenario failure."""

    components: tuple = ()

    def __bool__(self) -> bool:
        return bool(self.components)

    @property
    def digest(self) -> str:
        return blake2s(
            "|".join(self.components).encode("utf-8"), digest_size=6
        ).hexdigest()

    def describe(self) -> str:
        if not self.components:
            return "pass"
        return f"{self.digest}: " + " + ".join(self.components)

    @classmethod
    def collect(cls, components) -> "FailureFingerprint":
        return cls(components=tuple(sorted(set(components))))


@dataclass
class ScenarioOutcome:
    """One scenario execution: verdict, fingerprint, evidence."""

    scenario: Scenario
    failed: bool
    fingerprint: FailureFingerprint
    details: dict = field(default_factory=dict)
    run_report: Optional[RunReport] = None

    def report_dict(self) -> Optional[dict]:
        """Deterministic (wall-clock-scrubbed) report dictionary."""
        if self.run_report is None:
            return None
        return scrub_report(self.run_report.to_dict())

    def report_json(self) -> Optional[str]:
        import json

        doc = self.report_dict()
        if doc is None:
            return None
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def describe(self) -> str:
        verdict = "FAILED" if self.failed else "ok"
        return f"{self.scenario.describe()} -> {verdict} [{self.fingerprint.describe()}]"


class _Verdict(NamedTuple):
    """What an oracle hands the epilogue in :func:`run_scenario`."""

    components: list       # fingerprint components (empty: pass)
    details: dict          # evidence for ScenarioOutcome.details
    cluster: Cluster       # the run the scenario report describes
    meta: dict = {}        # kind-specific report meta


def _span_hook(scenario: Scenario, trace: bool, opened: list):
    """A ``before_run`` hook that opens the run's ``scenario`` span."""

    def before_run(cluster: Cluster) -> None:
        if trace:
            cluster.sim.spans.enable()
        opened.append(
            cluster.sim.spans.begin("scenario", scenario.workload_kind, id=scenario.scenario_id)
        )

    return before_run


def _stamp_scenario_stats(cluster: Cluster, scenario: Scenario, failed: bool) -> None:
    stats = cluster.sim.stats
    stats.counter("scenario.runs").add()
    stats.counter("scenario.faults_scheduled").add(len(scenario.fault_events))
    stats.counter("scenario.workload_ops").add(scenario.workload_size())
    if failed:
        stats.counter("scenario.failures").add()


def _audit_kinds(audit_report: Optional[dict]) -> list:
    """Violation kinds out of the auditor's describe() strings."""
    kinds = []
    for line in (audit_report or {}).get("violations", ()):
        if line.startswith("["):
            kinds.append(f"audit:{line[1:line.index(']')]}")
        else:  # pragma: no cover - defensive against format drift
            kinds.append("audit:unknown")
    return kinds


# ------------------------------------------------------------------ motif oracle


def _run_motif(scenario: Scenario, trace: bool) -> _Verdict:
    from ..experiments.chaos import run_motif_under_chaos

    opened: list = []
    out = run_motif_under_chaos(
        scenario.workload_kind,
        seed=scenario.cluster_seed,
        n_nodes=scenario.n_nodes,
        topology=scenario.topology,
        reliability=scenario.reliability,
        compare_clean=scenario.compare_clean,
        n_crashes=scenario.crash_count,
        audit=scenario.audit,
        schedule=ChaosSchedule(list(scenario.fault_events), scenario.drop_prob),
        routing=_ROUTING[scenario.routing],
        motif_params=dict(scenario.workload),
        before_run=_span_hook(scenario, trace, opened),
    )
    out.cluster.sim.spans.end(opened[0], completed=out.error is None)

    components = []
    if out.error is not None:
        components.append("exception:RuntimeError")
    if not out.completed and out.error is None:
        components.append("invariant:incomplete")
    if out.gave_up:
        components.append("invariant:gave_up")
    if out.identical_to_clean is False:
        components.append("invariant:not_identical")
    if out.replay_holes:
        components.append("invariant:replay_holes")
    if out.put_giveups:
        components.append("invariant:giveups")
    components.extend(_audit_kinds(out.audit_report))
    details = {
        "error": out.error,
        "retransmits": out.retransmits,
        "gave_up": out.gave_up,
        "identical_to_clean": out.identical_to_clean,
        "audit_violations": out.audit_violations,
        "crash_restarts": out.crash_restarts,
    }
    return _Verdict(components, details, out.cluster)


# --------------------------------------------------------------------- kv oracle

#: Per-op deadline budget for tenant-mix (qos) scenarios — generous
#: against the fault horizon so a deadline miss means a genuinely lost
#: request (quota reject), not a slow one.
KV_OP_DEADLINE_NS = 8_000_000.0


def _outcome_components(outcome) -> list:
    """Fingerprint components of a KV cell's typed run outcome."""
    if isinstance(outcome, Crashed):
        return [f"exception:{outcome.exc_type}"]
    if isinstance(outcome, Stalled):
        return ["stall"]
    return []


def _kv_tenancy(scenario: Scenario):
    """(TenantDirectory, client_tenants) for a qos scenario, else (None, ...)."""
    from ..services import TenantDirectory, TenantSpec

    workload = scenario.workload
    if not workload.get("qos"):
        return None, [0] * len(workload["scripts"])
    specs = tuple(
        TenantSpec(
            tenant_id=int(tid),
            weight=float(weight),
            admit_rate_bytes_per_us=float(admit),
            nic_quota_bytes_per_us=float(quota),
        )
        for tid, weight, admit, quota in workload["tenant_specs"]
    )
    return TenantDirectory(specs), [int(t) for t in workload["client_tenants"]]


def _run_kv(scenario: Scenario, trace: bool) -> _Verdict:
    workload = scenario.workload
    scripts = workload["scripts"]
    value_scale = int(workload.get("value_scale", 24))
    # Active-handler dimension (schema v3): derive the hot-key set
    # deterministically from the document — the first
    # ceil(fraction * keyspace) indices of every client's namespace.
    hot_keys: tuple = ()
    if workload.get("active"):
        n_keys = 1 + max(
            (int(key_i) for script in scripts for _op, key_i, _f in script), default=0
        )
        n_hot = max(1, int(n_keys * float(workload.get("hot_key_fraction", 0.5))))
        hot_keys = tuple(
            b"c%d-k%d" % (rank, k)
            for rank in range(len(scripts))
            for k in range(n_hot)
        )
    attach_word = bool(workload.get("handler_word"))
    directory, client_tenants = _kv_tenancy(scenario)
    failures: list = []
    handler_failures: list = []

    def client_script(rank: int, script):
        def run(client):
            if attach_word:
                # Handler-mix dimension: an atomic word on the reply mailbox
                # counts reply epochs NIC-side; losing the binding (or the
                # word) under faults is a fingerprinted failure.
                yield from client.api.attach_handler(
                    client.reply_win, AtomicWordHandler(op="add")
                )
            # Keys partitioned per client: each key's possible-state set is
            # the exact linearization envelope for this client's namespace.
            model: dict = {}
            for step, (op, key_i, fill) in enumerate(script):
                key = b"c%d-k%d" % (rank, key_i)
                possible = model.setdefault(key, {ABSENT})
                new_value = None
                value = None
                if op == "put":
                    new_value = bytes([fill]) * (1 + fill % max(1, value_scale))
                    status = yield from client.put(key, new_value)
                elif op == "delete":
                    status = yield from client.delete(key)
                else:
                    status, value = yield from client.get(key)
                problem = apply_kv_step(op, status, value, new_value, possible)
                if problem is not None:
                    failures.append(f"rank{rank} step{step}: {problem}")
            if attach_word:
                word = yield from client.api.active_word(client.reply_win)
                if word is None:
                    handler_failures.append(f"rank{rank}: reply-mailbox word handler lost")

        return run

    spec = KvCellSpec(
        groups=(ClientGroup(
            driver=tuple(client_script(rank, script) for rank, script in enumerate(scripts)),
            tenants=tuple(client_tenants),
            # max_retries=0: each frame is sent exactly once, so a request
            # either executed once or not at all — the precise ambiguity the
            # possible-state oracle models.  Retries would add duplicate-
            # execution ambiguity without widening coverage.
            robustness=(
                ClientRobustnessConfig(max_retries=0, default_deadline_ns=KV_OP_DEADLINE_NS)
                if directory is not None else None
            ),
        ),),
        seed=scenario.cluster_seed,
        shards_per_node=int(workload.get("shards_per_node", 2)),
        server_config=KvServerConfig(hot_keys=hot_keys),
        topology=scenario.topology,
        routing=_ROUTING[scenario.routing],
        reliability=scenario.reliability,
        n_nodes=scenario.n_nodes,
        chaos=ChaosSchedule(list(scenario.fault_events), scenario.drop_prob),
        spans=trace,
        tenants=directory,
        placement_quota=directory is not None,
        deadline_ns=KV_DEADLINE_NS,
    )
    opened: list = []
    cell = run_kv_cell(spec, before_run=_span_hook(scenario, trace, opened))
    components = _outcome_components(cell.outcome)
    if failures:
        components.append("kv:linearizability")
    if handler_failures:
        components.append("active:word_lost")
    if cell.gave_up:
        components.append("invariant:gave_up")
    # Quota rejects are reject-into-counter by design (terminal at the
    # sender NIC, client deadline is the recovery path) — only losses
    # beyond them indicate the transport actually dropped data.
    if cell.puts_lost - cell.puts_lost_quota > 0 and scenario.reliability:
        components.append("invariant:puts_lost")
    cell.cluster.sim.spans.end(opened[0], completed=not components)
    details = {"kv_failures": failures[:10], "clients": len(scripts)}
    return _Verdict(components, details, cell.cluster)


# ------------------------------------------------------------- differential oracle


def _diff_payload(seed: int, src: int, dst: int, i: int, max_msg: int) -> bytes:
    size = 64 + ((src * 13 + dst * 7 + i * 29 + seed) % max(1, max_msg - 64))
    base = src * 31 + dst * 17 + i * 3 + seed
    return bytes((base + j) % 256 for j in range(size))


def _run_differential(scenario: Scenario, trace: bool) -> _Verdict:
    seed = scenario.cluster_seed
    max_msg = int(scenario.workload.get("max_msg", 512))
    channels = [
        ((src, dst), src, dst, 100 + k,
         [_diff_payload(seed, src, dst, i, max_msg) for i in range(n_msgs)])
        for k, (src, dst, n_msgs) in enumerate(
            sorted((int(s), int(d), int(n)) for s, d, n in scenario.workload["channels"])
        )
    ]
    results = {}
    components = []
    opened: list = []
    for backend in scenario.compare:
        delivered, counts, stalled, cluster = run_channels(
            backend, channels, scenario.n_nodes, scenario.topology, seed, max_msg,
            DIFF_DEADLINE_NS, before_run=_span_hook(scenario, trace, opened),
        )
        cluster.sim.spans.end(opened[-1], completed=not stalled)
        results[backend] = (delivered, counts, cluster)
        if stalled:
            components.append("stall")

    base_delivered, base_counts, cluster = results[scenario.compare[0]]
    divergences = []
    for name in scenario.compare[1:]:
        got_delivered, got_counts, _cluster = results[name]
        if got_delivered != base_delivered:
            divergences.append(("bytes", name))
        if got_counts != base_counts:
            divergences.append(("counts", name))
    if divergences:
        # Digest over the *shape* of the divergence (which backend,
        # bytes vs counts) — stable while the shrinker trims channels.
        digest = blake2s(
            "|".join(f"{k}:{n}" for k, n in sorted(divergences)).encode("utf-8"),
            digest_size=4,
        ).hexdigest()
        components.append(f"diff:{digest}")
    details = {
        "backends": list(scenario.compare),
        "divergences": [f"{k}:{n}" for k, n in sorted(divergences)],
    }
    return _Verdict(components, details, cluster, {"backends": list(scenario.compare)})


# ------------------------------------------------------------------ trace oracle


def _run_trace(scenario: Scenario, trace: bool) -> _Verdict:
    """Replay a committed exemplar trace (schema v4 workload kind).

    The offered load is pinned by the trace file, so the oracles here
    are pure outcome checks: per-key replay safety (linearizability over
    the recorded op streams), op-stream liveness, transport/NIC
    integrity counters, and the invariant auditor.
    """
    from ..experiments.trace_replay import replay_trace
    from ..workloads import load_exemplar

    workload = scenario.workload
    exemplar = load_exemplar(workload["trace_ref"])
    cell = replay_trace(
        exemplar,
        seed=scenario.cluster_seed,
        qos=bool(workload.get("qos", False)),
        active=bool(workload.get("active", False)),
        audit=scenario.audit,
        observe=trace,
        topology=scenario.topology,
    )
    components = _outcome_components(cell.outcome)
    if not cell.stats.all_resolved():
        components.append("stall")
    if cell.safety_failures:
        components.append("kv:linearizability")
    if cell.gave_up:
        components.append("invariant:gave_up")
    if cell.puts_lost - cell.puts_lost_quota:
        components.append("invariant:puts_lost")
    if not cell.audit_ok:
        components.append("audit:violations")
    details = {
        "error": cell.error,
        "trace_ref": workload["trace_ref"],
        "outcome_digest": cell.outcome_digest,
        "safety_failures": cell.safety_failures[:5],
        "gave_up": cell.gave_up,
        "audit_violations": cell.audit_violations,
    }
    meta = {"trace_ref": workload["trace_ref"], "trace_id": exemplar.trace_id}
    return _Verdict(components, details, cell.cluster, meta)


# -------------------------------------------------------------------- entry point


_ORACLES = {"kv": _run_kv, "differential": _run_differential, "trace": _run_trace}


def run_scenario(scenario: Scenario, trace: bool = False) -> ScenarioOutcome:
    """Execute *scenario* under its oracles.

    Every kind ends here: an oracle that raises fingerprints as
    ``exception:<Type>`` with no report; otherwise the run's cluster is
    stamped with the ``scenario.*`` counters and reported with the
    shared meta (``harness``, ``workload``, ``scenario_id``,
    ``scenario_seed``, ``fingerprint``) plus the oracle's own keys.

    The schema's ``engine`` field is validated but ignored: the
    simulator has a single engine mode.
    """
    scenario.validate()
    oracle = _ORACLES.get(scenario.workload_kind, _run_motif)
    try:
        verdict = oracle(scenario, trace)
    except Exception as exc:
        return ScenarioOutcome(
            scenario=scenario,
            failed=True,
            fingerprint=FailureFingerprint.collect([f"exception:{type(exc).__name__}"]),
            details={"error": str(exc)},
        )
    fp = FailureFingerprint.collect(verdict.components)
    _stamp_scenario_stats(verdict.cluster, scenario, bool(fp))
    report = RunReport.collect(
        verdict.cluster,
        meta={
            "harness": "scenario-fuzz",
            "workload": scenario.workload_kind,
            "scenario_id": scenario.scenario_id,
            "scenario_seed": scenario.seed,
            "fingerprint": fp.describe(),
            **verdict.meta,
        },
    )
    return ScenarioOutcome(
        scenario=scenario,
        failed=bool(fp),
        fingerprint=fp,
        details=verdict.details,
        run_report=report,
    )
