"""The metric catalog and the hierarchical view over one run's stats.

Every metric is named once, where it is registered: components call
``sim.stats.counter("nic.rvma.bytes_placed", self.name)`` (or
``Component.stat``, which supplies the instance label), and
:class:`~repro.sim.stats.StatsRegistry` refuses a name that
:data:`CATALOG` does not declare, or declares as another kind.
:class:`MetricsRegistry` is the read side: it sums every metric over
its instances — counters add, summaries merge via Chan's combine,
histograms merge bin-wise.

Every name is declared in :data:`CATALOG` with a unit and a one-line
meaning; ``docs/OBSERVABILITY.md`` is generated from and checked
against it, so a metric cannot appear in a report undocumented.

Imports only :mod:`repro.sim.stats` — never nic/network/cluster — to
stay cycle-free (the engine imports this package's sibling ``spans``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.stats import Histogram, Summary


@dataclass(frozen=True)
class MetricSpec:
    """Catalog entry: canonical name, primitive kind, unit, meaning."""

    name: str
    kind: str  # "counter" | "summary" | "histogram"
    unit: str
    description: str


def _c(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, "counter", unit, description)


def _s(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, "summary", unit, description)


def _h(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, "histogram", unit, description)


#: Every canonical metric the observability layer can emit.  Names
#: ending in ``*`` are prefix patterns (open-ended families such as
#: per-window fault drop counters).
CATALOG: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in [
        # --- nic.rvma: the RVMA receive pipeline --------------------------
        _c("nic.rvma.bytes_placed", "bytes", "Payload bytes written into mailbox buffers by the RVMA placement pipeline."),
        _c("nic.rvma.epochs_completed", "epochs", "Buffer epochs retired after reaching their completion threshold."),
        _c("nic.rvma.buffers_posted", "buffers", "Virtual buffers posted into mailboxes (including managed-mode reposts)."),
        _c("nic.rvma.puts_discarded", "ops", "Inbound puts dropped at the NIC (closed window, missing mailbox, bounds)."),
        _c("nic.rvma.puts_lost", "ops", "Puts abandoned for good after NACK retry exhaustion."),
        _c("nic.rvma.put_retries", "ops", "Sender-side put retries triggered by receiver NACKs."),
        _c("nic.rvma.put_giveups", "ops", "Puts that exhausted their NACK retry budget."),
        _c("nic.rvma.catch_all_hits", "ops", "Puts landing in a catch-all mailbox instead of a targeted one."),
        _c("nic.rvma.spilled_completions", "events", "Completions spilled to the overflow queue (completion FIFO full)."),
        _c("nic.rvma.nacks_received", "msgs", "NACK control messages received by the sending NIC."),
        _c("nic.rvma.nacks_closed", "msgs", "NACKs sent because the target mailbox window was closed."),
        _c("nic.rvma.nacks_no_mailbox", "msgs", "NACKs sent because no mailbox matched the virtual address."),
        _c("nic.rvma.nacks_no_buffer", "msgs", "NACKs sent because the mailbox had no posted buffer."),
        _c("nic.rvma.nacks_out_of_bounds", "msgs", "NACKs sent because the put exceeded buffer bounds."),
        _c("nic.rvma.nacks_quota", "msgs", "NACKs sent because the tenant placement quota rejected the put."),
        _c("nic.rvma.nacks_filtered", "msgs", "NACKs sent because an active-mailbox predicate filter rejected the payload."),
        _c("nic.rvma.quota_rejects", "ops", "Inbound puts rejected whole at placement by the tenant quota hook."),
        _c("nic.rvma.puts_lost_quota", "ops", "Sender-side puts abandoned because the receiver's tenant quota shed them (accounted QoS loss, subset of puts_lost)."),
        _c("nic.rvma.gets_failed_peer_death", "ops", "RVMA gets failed locally because the target peer is marked dead."),
        _c("nic.rvma.tx_messages", "msgs", "Data messages injected into the fabric by RVMA NICs."),
        _c("nic.rvma.tx_control", "msgs", "Control messages (acks, nacks, heartbeats) injected by RVMA NICs."),
        _c("nic.rvma.rx_dropped_failed", "msgs", "Inbound messages dropped because the RVMA NIC was failed/crashed."),
        _c("nic.rvma.rx_unknown_header", "msgs", "Inbound messages with an unrecognized header type."),
        _h("nic.rvma.epoch_bytes", "bytes", "Distribution of bytes accumulated per retired buffer epoch."),
        # Active mailboxes (NIC-side compute-on-arrival, repro.nic.active).
        _c("nic.rvma.active.attached", "handlers", "Active-mailbox handlers bound to mailboxes (including crash-restart re-attaches)."),
        _c("nic.rvma.active.invocations", "epochs", "Completion-unit handler invocations at epoch close."),
        _c("nic.rvma.active.word_ops", "ops", "Atomic word operations (add/add_bytes/cas) executed at epoch close."),
        _c("nic.rvma.active.cas_failures", "ops", "Compare-and-swap word operations whose expectation did not hold."),
        _c("nic.rvma.active.filter_passed", "ops", "Puts that passed an active-mailbox predicate filter and placed normally."),
        _c("nic.rvma.active.filtered_puts", "ops", "Puts rejected by an active-mailbox predicate filter before placement."),
        _c("nic.rvma.active.filter_bypass", "ops", "Fragmented puts that bypassed a predicate filter (payload not evaluable)."),
        _c("nic.rvma.active.served", "ops", "Hot-key GETs served straight from the NIC view (host sweep never dispatched them)."),
        _c("nic.rvma.active.served_bytes", "bytes", "Reply bytes injected by the KV serve handler."),
        _c("nic.rvma.active.passed_dirty", "ops", "Hot-key GETs passed to the host because the key had pending unsynced writes."),
        _c("nic.rvma.active.passed_cold", "ops", "Hot-key GETs passed to the host because the view held no value for the key."),
        _c("nic.rvma.active.kv_syncs", "ops", "Host→NIC hot-key view syncs (write executed or shed)."),
        _c("nic.rvma.active.replayed", "epochs", "Epoch completions whose handler effects were re-asserted from the journal during rejoin replay."),
        # --- nic.rdma: the RDMA comparison NIC ----------------------------
        _c("nic.rdma.bytes_placed", "bytes", "Payload bytes written into registered memory regions by the RDMA path."),
        _c("nic.rdma.mrs_registered", "regions", "Memory regions registered with the RDMA NIC."),
        _c("nic.rdma.writes_rejected", "ops", "RDMA writes rejected (bad rkey, bounds, permissions)."),
        _c("nic.rdma.reads_rejected", "ops", "RDMA reads rejected (bad rkey, bounds, permissions)."),
        _c("nic.rdma.rnr_drops", "ops", "Receiver-not-ready drops (no posted receive)."),
        _c("nic.rdma.rnr_retries", "ops", "Sender retries after an RNR NAK."),
        _c("nic.rdma.recv_too_small", "ops", "Posted receives too small for the arriving send."),
        _c("nic.rdma.ops_failed_peer_death", "ops", "RDMA verbs failed locally because the target peer is marked dead."),
        _c("nic.rdma.tx_messages", "msgs", "Data messages injected into the fabric by RDMA NICs."),
        _c("nic.rdma.tx_control", "msgs", "Control messages injected by RDMA NICs."),
        _c("nic.rdma.rx_dropped_failed", "msgs", "Inbound messages dropped because the RDMA NIC was failed/crashed."),
        _c("nic.rdma.rx_unknown_header", "msgs", "Inbound messages with an unrecognized header type."),
        # --- transport: the ARQ reliability layer -------------------------
        _c("transport.tx", "msgs", "Messages handed to the reliable transport for first transmission."),
        _c("transport.retransmits", "msgs", "Retransmissions triggered by ack timeout or SACK holes."),
        _c("transport.acks_rx", "msgs", "ACK envelopes received by senders."),
        _c("transport.acks_tx", "msgs", "ACK envelopes emitted by receivers."),
        _c("transport.delivered", "msgs", "In-order messages released to the NIC placement pipeline."),
        _c("transport.dups_suppressed", "msgs", "Duplicate transmissions suppressed before placement."),
        _c("transport.gave_up", "msgs", "Messages abandoned after exhausting the retransmit budget."),
        _c("transport.rx_paced", "msgs", "Deliveries held back by receiver pacing (flow_room) before release."),
        _c("transport.pings_tx", "msgs", "Heartbeat pings emitted for failure detection."),
        _s("transport.tx_attempts", "attempts", "Transmission attempts needed per acknowledged message (1 = no loss)."),
        # --- detector: phi-accrual-lite failure detection -----------------
        _c("detector.peers_suspected", "peers", "Peer-suspected transitions raised by the failure detector."),
        _c("detector.peers_reinstated", "peers", "Suspected peers reinstated after a late heartbeat."),
        _c("detector.peer_failures_seen", "peers", "PeerFailed notifications observed by NICs."),
        # --- recovery: crash-restart, checkpoint, rejoin, audit -----------
        _c("recovery.replayed_msgs", "msgs", "Journaled messages replayed to a rejoining peer after its restart."),
        _c("recovery.rejoins_initiated", "rejoins", "Rejoin handshakes initiated by restarted nodes."),
        _c("recovery.mailboxes_restored", "mailboxes", "Mailboxes rebuilt from checkpoint state during rejoin."),
        _c("recovery.rejoin_hellos_serviced", "msgs", "RejoinHello requests serviced by surviving peers."),
        _c("recovery.checkpoints_taken", "checkpoints", "Quiescence-gated checkpoints committed by the daemon."),
        _c("recovery.checkpoints_deferred", "checkpoints", "Checkpoint attempts deferred because the NIC was not quiescent."),
        _c("recovery.audit_violations", "violations", "Invariant auditor violations (byte conservation, double placement…)."),
        _c("recovery.crashes", "crashes", "Crash-stop events applied to NICs."),
        _c("recovery.restarts", "restarts", "NIC restarts after a crash-stop."),
        _c("recovery.failed", "events", "Fail-stop (non-restartable) events applied to NICs."),
        _s("recovery.checkpoint_mailboxes", "mailboxes", "Mailboxes captured per committed checkpoint."),
        _s("recovery.checkpoint_age_ns", "ns", "Age of the checkpoint used at restart (crash time minus commit time)."),
        # --- fabric: network links, switches, packet fabric ---------------
        _c("fabric.messages_sent", "msgs", "Messages accepted by the fabric for delivery."),
        _c("fabric.bytes_sent", "bytes", "Payload bytes accepted by the fabric."),
        _c("fabric.deliveries_dropped", "msgs", "Deliveries dropped in flight (fault injection, dead links)."),
        _c("fabric.packets_forwarded", "packets", "Packets forwarded by switches (packet-level fabric only)."),
        _c("fabric.packets_delivered", "packets", "Packets delivered to endpoint NICs (packet-level fabric only)."),
        _s("fabric.msg_latency_ns", "ns", "End-to-end fabric latency per delivered message."),
        # --- service.kv: the sharded key-value service --------------------
        _c("service.kv.requests", "ops", "KV requests decoded and executed by shard servers."),
        _c("service.kv.replies", "ops", "KV replies delivered to client completion mailboxes."),
        _c("service.kv.not_found", "ops", "GET/DELETE requests whose key was absent from the store."),
        _c("service.kv.bytes_in", "bytes", "Request-frame bytes consumed from shard request streams."),
        _c("service.kv.bytes_out", "bytes", "Reply-frame bytes put back to client completion mailboxes."),
        _c("service.kv.flushes", "epochs", "Partial request chunks surfaced early via RVMA_Win_inc_epoch."),
        _s("service.kv.reply_batch", "replies", "Replies coalesced into one put per (shard sweep, client)."),
        _s("service.kv.shard_queue_depth", "requests", "Decoded requests waiting in a shard's queue per server sweep."),
        _h("service.kv.request_latency_ns", "ns", "Client-observed KV request latency (issue to decoded reply)."),
        # --- service.kv QoS: multi-tenant admission, scheduling, robustness
        _c("service.kv.overload_replies", "ops", "RC_OVERLOAD replies sent by server admission control (token bucket or p99 shedding)."),
        _h("service.kv.queue_sojourn_ns", "ns", "Time admitted requests spent in the DRR scheduler before execution (the shedding SLO signal)."),
        _c("service.kv.client.timeouts", "ops", "Client-side request timeouts (no reply within the attempt timeout)."),
        _c("service.kv.client.retries", "ops", "Client request retransmissions after a timeout (exponential backoff + jitter)."),
        _c("service.kv.client.stale_replies", "msgs", "Late reply frames dropped because the request was already resolved (a retry won or the deadline passed)."),
        _c("service.kv.client.handler_served", "msgs", "Replies served by a NIC-side active handler (STATUS_HANDLER_FLAG stripped client-side; excluded from host sweep accounting)."),
        _c("service.kv.client.backlog_dropped", "ops", "Open-loop arrivals shed at the load generator's backlog cap."),
        _c("service.kv.tenant.admitted*", "ops", "Per-tenant requests admitted past the token-bucket admitter (…admitted.t<id>)."),
        _c("service.kv.tenant.shed*", "ops", "Per-tenant requests refused with RC_OVERLOAD at admission (…shed.t<id>)."),
        _c("service.kv.tenant.served_bytes*", "bytes", "Per-tenant request bytes executed by the weighted-fair scheduler (…served_bytes.t<id>)."),
        _c("service.kv.tenant.retries*", "ops", "Per-tenant client retransmissions (…retries.t<id>)."),
        _c("service.kv.tenant.deadline_misses*", "ops", "Per-tenant requests resolved client-side as deadline-exceeded (…deadline_misses.t<id>)."),
        _c("service.kv.tenant.quota_rejects*", "ops", "Per-tenant puts rejected by the NIC placement quota (…quota_rejects.t<id>)."),
        _h("service.kv.tenant.request_latency_ns*", "ns", "Per-tenant client-observed request latency (…request_latency_ns.t<id>)."),
        # --- scenario: the seeded scenario fuzzer -------------------------
        _c("scenario.runs", "runs", "Scenario executions driven by the fuzzer runner (replay or campaign)."),
        _c("scenario.failures", "runs", "Scenario executions whose oracles reported a failure fingerprint."),
        _c("scenario.faults_scheduled", "events", "Pinned fault events installed from scenario documents."),
        _c("scenario.workload_ops", "ops", "Abstract workload weight (steps/messages) of executed scenarios."),
        _c("scenario.shrink_attempts", "candidates", "Shrink candidates evaluated while minimizing a failing scenario."),
        _c("scenario.shrink_accepted", "candidates", "Shrink candidates accepted (smaller, same failure fingerprint)."),
        # --- workload.trace: trace-driven record/replay -------------------
        _c("workload.trace.rows_recorded", "ops", "Offered ops captured by a TraceRecorder from live KvClients."),
        _c("workload.trace.rows_replayed", "ops", "Trace rows dispatched to pool clients by the TraceReplayer."),
        _c("workload.trace.rows_dropped", "ops", "Trace rows shed at the replayer's backlog cap instead of dispatched."),
        _s("workload.trace.replay_lag_ns", "ns", "Dispatch lag per replayed row (worker pickup time minus trace timestamp)."),
        # --- faults: injected chaos -------------------------------------
        _c("faults.crashes", "crashes", "Crash faults injected by the fault injector."),
        _c("faults.restarts", "restarts", "Restart faults injected by the fault injector."),
        _c("faults.drops_random", "msgs", "Messages dropped by random-drop fault injection."),
        _c("faults.drops_*", "msgs", "Messages dropped by scheduled drop windows, one counter per window kind."),
    ]
}

def lookup(name: str) -> Optional[MetricSpec]:
    """Catalog spec for *name*, honoring ``prefix*`` pattern entries."""
    spec = CATALOG.get(name)
    if spec is not None:
        return spec
    for pat, pspec in CATALOG.items():
        if pat.endswith("*") and name.startswith(pat[:-1]):
            return pspec
    return None


class MetricsRegistry:
    """A hierarchical view over one run's statistics.

    Build one with :meth:`collect` after (or during) a run; it holds
    counters, merged summaries and merged histograms keyed by catalog
    name, each summed over the instances that registered it.  Per-
    instance values stay in the simulator's
    :class:`~repro.sim.stats.StatsRegistry` (``sim.stats.instances``).
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.summaries: dict[str, Summary] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def collect(cls, target: Any) -> "MetricsRegistry":
        """Sum *target*'s stats over instances (a Simulator, or anything with ``.sim``)."""
        sim = getattr(target, "sim", target)
        reg = cls()
        stats = sim.stats
        for (name, _), counter in stats.counter_items():
            reg.counters[name] = reg.counters.get(name, 0) + counter.value
        for (name, _), summ in stats.summary_items():
            agg = reg.summaries.get(name)
            if agg is None:
                agg = reg.summaries[name] = Summary(name)
            agg.merge(summ)
        for (name, _), hist in stats.histogram_items():
            agg = reg.histograms.get(name)
            if agg is None:
                agg = reg.histograms[name] = Histogram(name, hist.lo, hist.hi, hist.nbins)
            agg.merge(hist)
        return reg

    # -- queries ----------------------------------------------------------

    def flat(self, prefix: str = "") -> dict[str, Any]:
        """All metrics under *prefix* as one flat name→value dict.

        Counters flatten to ints; summaries and histograms flatten to
        small stat dicts (see :meth:`summary_dict` / histogram bins).
        """
        out: dict[str, Any] = {}
        for name, v in self.counters.items():
            if name.startswith(prefix):
                out[name] = v
        for name, s in self.summaries.items():
            if name.startswith(prefix):
                out[name] = self.summary_dict(s)
        for name, h in self.histograms.items():
            if name.startswith(prefix):
                out[name] = self.histogram_dict(h)
        return dict(sorted(out.items()))

    def snapshot(self, prefix: str = "") -> dict[str, dict[str, Any]]:
        """Metrics grouped by their first name segment: ``{group: {name: value}}``."""
        groups: dict[str, dict[str, Any]] = {}
        for name, value in self.flat(prefix).items():
            group = name.split(".", 1)[0]
            groups.setdefault(group, {})[name] = value
        return groups

    def groups(self) -> list[str]:
        """Sorted top-level metric groups present (nic, transport, …)."""
        seen = set()
        for name in (*self.counters, *self.summaries, *self.histograms):
            seen.add(name.split(".", 1)[0])
        return sorted(seen)

    def names(self) -> list[str]:
        return sorted({*self.counters, *self.summaries, *self.histograms})

    def undocumented(self) -> list[str]:
        """Metric names carrying values that the CATALOG does not declare."""
        return [n for n in self.names() if lookup(n) is None]

    @staticmethod
    def summary_dict(s: Summary) -> dict[str, float]:
        if s.n == 0:
            return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "stddev": 0.0, "total": 0.0}
        return {
            "n": s.n,
            "mean": s.mean,
            "min": s.min,
            "max": s.max,
            "stddev": s.stddev,
            "total": s.total,
        }

    @staticmethod
    def histogram_dict(h: Histogram) -> dict[str, Any]:
        return {
            "count": h.count,
            "lo": h.lo,
            "hi": h.hi,
            "nbins": h.nbins,
            "bins": list(h.bins),
            "underflow": h.underflow,
            "overflow": h.overflow,
            "p50": h.percentile(0.50),
            "p99": h.percentile(0.99),
        }
