"""Crash-restart rejoin protocol: restore, handshake, replay.

The recovery stack for one cluster is a :class:`RecoveryManager` — one
:class:`RecoveryAgent` per node, armed on a
:class:`~repro.faults.injectors.FaultInjector` so crash/restart events
drive it.  While healthy, each agent journals window-structure commands
(:class:`~repro.recovery.checkpoint.OpJournal`), journals reliable sends
(:class:`~repro.recovery.checkpoint.SendJournal`) and takes periodic
:class:`~repro.recovery.checkpoint.CheckpointDaemon` snapshots.  After a
crash-restart the agent:

1. **restores** the mailbox LUT structurally from the op journal and
   positionally from the newest checkpoint — post *i* of a window serves
   epoch *i*, so posts before the checkpointed epoch are represented by
   the checkpointed retired ring, the post *at* it becomes the active
   buffer with the checkpointed counter, and later posts re-queue reset;
2. **reinstates** receive flows at the checkpointed cumulative sequence
   edges and sanctions the auditor's replay window;
3. **rejoins** every peer with a :class:`~repro.nic.headers.RejoinHello`
   carrying the restored edges; the peer un-suspects the node, replays
   its send journal beyond each edge (original sequence numbers, so
   dedup state stays valid) and answers with a
   :class:`~repro.nic.headers.RejoinReply` carrying *its* receive edges;
4. **replays** its own journal beyond the peer's edges, so traffic the
   crashed node sent pre-crash but the peer never received is also
   recovered.

Epochs the node had completed after its last checkpoint are rebuilt by
the peers' replay re-driving placement — byte-identical, which the
:class:`~repro.recovery.auditor.InvariantAuditor` verifies.  Journal
coverage holes (a bounded send journal evicted a needed entry) are
reported in the :class:`RecoveryReport`, never silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.builder import Cluster
from ..faults.injectors import FaultInjector
from ..network.message import Delivery
from ..nic.headers import RejoinHello, RejoinReply
from .checkpoint import CheckpointDaemon, NodeCheckpoint, OpJournal, SendJournal

#: Send-journal retention per (dst, flow) — replay coverage bound.
JOURNAL_RETAIN = 4096


@dataclass
class RecoveryConfig:
    """Knobs of the checkpoint/rejoin machinery."""

    #: Checkpoint period (ns).  Cheap (counters only), so frequent.
    checkpoint_interval_ns: float = 10_000.0
    #: Last instant the checkpoint daemons tick (bounds the event heap
    #: so a run still terminates; set >= the workload's horizon).
    horizon_ns: float = 400_000.0


@dataclass
class RejoinRecord:
    """One observed rejoin (restarted node's point of view)."""

    node: int
    incarnation: int
    time: float
    peers_greeted: int
    mailboxes_restored: int
    checkpoint_age_ns: Optional[float]  # None: rejoined with no checkpoint


@dataclass
class RecoveryReport:
    """What the recovery stack actually did (audit/test surface)."""

    rejoins: list[RejoinRecord] = field(default_factory=list)
    #: (peer_node, restarted_node, time) per hello serviced.
    hellos_serviced: list[tuple[int, int, float]] = field(default_factory=list)
    #: (restarted_node, peer_node, time) per reply consumed.
    replies_consumed: list[tuple[int, int, float]] = field(default_factory=list)
    #: send-journal coverage holes encountered during replay.
    replay_holes: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every rejoin had full replay coverage and both handshake
        directions ran at least once per rejoin."""
        return not self.replay_holes and all(
            r.peers_greeted == 0 or any(h[1] == r.node for h in self.hellos_serviced)
            for r in self.rejoins
        )


class RecoveryAgent:
    """Per-node recovery logic: journals, checkpoints, rejoin handshake."""

    def __init__(self, node, cfg: RecoveryConfig, report: RecoveryReport) -> None:
        self.node = node
        self.cfg = cfg
        self.report = report
        self.op_journal = OpJournal()
        self.send_journal = SendJournal(retain=JOURNAL_RETAIN)
        self.daemon = CheckpointDaemon(
            node, cfg.checkpoint_interval_ns, cfg.horizon_ns
        )
        #: open observability span covering crash -> rejoin, if tracing.
        self._crash_span = None

    # ------------------------------------------------------------------ arming

    def install(self) -> None:
        """Hook the journals into the NIC/transport and start snapshots."""
        nic = self.node.nic
        nic.op_journal = self.op_journal
        if nic.transport is not None:
            nic.transport.journal = self.send_journal
        nic.register_handler(RejoinHello, self._on_hello)
        nic.register_handler(RejoinReply, self._on_reply)
        self.daemon.start()

    def on_crash(self) -> None:
        """The NIC just crash-stopped and swapped in a fresh transport.

        Re-hook the (surviving, host-side) send journal and seed the new
        transport's sequence spaces past everything journaled, so sends
        issued while the node is down continue the old numbering —
        receivers dedup by sequence number, so reuse would silently
        swallow them.
        """
        nic = self.node.nic
        spans = self.node.sim.spans
        if spans.active and spans.wants("recovery"):
            self._crash_span = spans.begin(
                "recovery",
                "crash_restart",
                node=self.node.node_id,
                incarnation=nic.incarnation,
            )
        if nic.transport is None:
            return
        nic.transport.journal = self.send_journal
        for (dst, flow), next_seq in self.send_journal.next_seqs().items():
            nic.transport.seed_tx_flow(dst, flow, next_seq)

    # ------------------------------------------------------------------ restart

    def on_restart(self) -> None:
        """Restore NIC state from host-side shadows, then rejoin peers."""
        nic = self.node.nic
        ckpt = self.daemon.latest
        restored = self._restore_lut(ckpt)
        rx_cums: dict = dict(ckpt.rx_cums) if ckpt is not None else {}
        if nic.transport is not None:
            for (peer, flow), cum in rx_cums.items():
                nic.transport.restore_rx_flow(peer, flow, cum)
        if nic.auditor is not None:
            nic.auditor.note_restore(nic, restored, rx_cums)
        self._drain_satisfied_boundaries(restored)
        peers = {p for (p, _flow) in rx_cums} | self.send_journal.peers()
        peers.discard(self.node.node_id)
        epochs = tuple(sorted(restored.items()))
        for peer in sorted(peers):
            cums = tuple(
                sorted(
                    (flow, cum)
                    for (p, flow), cum in rx_cums.items()
                    if p == peer
                )
            )
            nic.send_control(
                peer,
                RejoinHello(
                    node=self.node.node_id,
                    incarnation=nic.incarnation,
                    rx_cums=cums,
                    epochs=epochs,
                ),
            )
        nic.stat("recovery.rejoins_initiated").add()
        if ckpt is not None:
            self.node.sim.stats.summary("recovery.checkpoint_age_ns").add(
                self.node.sim.now - ckpt.time
            )
        sim = self.node.sim
        sim.spans.end(
            self._crash_span,
            peers_greeted=len(peers),
            mailboxes_restored=len(restored),
        )
        self._crash_span = None
        self.report.rejoins.append(
            RejoinRecord(
                node=self.node.node_id,
                incarnation=nic.incarnation,
                time=self.node.sim.now,
                peers_greeted=len(peers),
                mailboxes_restored=len(restored),
                checkpoint_age_ns=(
                    None if ckpt is None else self.node.sim.now - ckpt.time
                ),
            )
        )

    def _restore_lut(self, ckpt: Optional[NodeCheckpoint]) -> dict:
        """Rebuild the mailbox LUT from op journal + checkpoint.

        Returns {mailbox: restored_epoch}.  The journal gives the window
        *structure* (posts in order — post *i* serves epoch *i*); the
        checkpoint gives the *position* (epoch, active counter, retired
        ring).  Without a checkpoint everything restores to epoch 0 and
        peer replay re-drives the whole history.
        """
        nic = self.node.nic
        lut = getattr(nic, "lut", None)
        restored: dict = {}
        if lut is None:
            return restored
        for mailbox, log in self.op_journal.windows.items():
            snap = ckpt.mailboxes.get(mailbox) if ckpt is not None else None
            entry = lut.init_entry(mailbox, log.threshold_type, log.mode)
            epoch = snap.epoch if snap is not None else 0
            entry.epoch = epoch
            if snap is not None:
                entry.retired.extend(snap.retired)
            for i, post in enumerate(log.posts):
                if i < epoch:
                    continue  # completed pre-checkpoint; lives in the retired ring
                pb = post.posted
                pb.completed = False
                if snap is not None and snap.active is not None and i == epoch:
                    pb.counter = snap.active.counter
                    pb.bytes_received = snap.active.bytes_received
                else:
                    pb.counter = 0
                    pb.bytes_received = 0
                # Epochs the first run completed after this checkpoint
                # must re-complete at the *same* boundary during replay —
                # the journal pinned each one's counter at retire time
                # (flush can cut an epoch anywhere, even at zero bytes,
                # and the put stream alone cannot reproduce that).
                retire = log.retires.get(i)
                pb.replay_boundary = retire is not None
                if retire is not None:
                    pb.threshold = retire[0]
                lut.post(entry, pb)
            entry.closed = log.closed
            if log.handlers:
                # Re-attach active-mailbox handlers cold (the bindings
                # were NIC SRAM); the word rebuilds from journaled
                # effects and replayed epochs re-assert their own.
                # Must precede _drain_satisfied_boundaries: those
                # re-completions consult the registry.
                reg = nic._active_registry()
                for handler in log.handlers:
                    reg.restore(mailbox, handler, log)
            restored[mailbox] = epoch
        if self.op_journal.catch_all is not None:
            entry = lut.entries.get(self.op_journal.catch_all)
            if entry is not None:
                lut.set_catch_all(entry)
        nic.stat("recovery.mailboxes_restored").add(len(restored))
        return restored

    def _drain_satisfied_boundaries(self, restored: dict) -> None:
        """Retire restored epochs whose journaled boundary is already met.

        A post-checkpoint flush that took no further bytes leaves its
        epoch satisfied at restore time (counter == pinned threshold,
        possibly both zero); it must retire now so replay numbering
        lines up.  Runs *after* the auditor's restore sanction is
        installed — these completions are part of the sanctioned replay.
        """
        nic = self.node.nic
        lut = getattr(nic, "lut", None)
        if lut is None:
            return
        for mailbox in restored:
            entry = lut.entries.get(mailbox)
            if entry is None:
                continue
            active = entry.active
            if active is not None and active.replay_boundary and active.counter >= active.threshold:
                nic._complete_active(entry)  # cascades through successors

    # ------------------------------------------------------------------ handshake

    def _on_hello(self, delivery: Delivery) -> None:
        """A restarted peer announced its restored receive edges."""
        hdr: RejoinHello = delivery.message.header
        nic = self.node.nic
        if nic.detector is not None:
            nic.detector.reinstate(hdr.node)
        self.report.hellos_serviced.append(
            (self.node.node_id, hdr.node, self.node.sim.now)
        )
        nic.stat("recovery.rejoin_hellos_serviced").add()
        if nic.transport is None:
            return
        holes = nic.transport.replay_flows(
            hdr.node, dict(hdr.rx_cums), self.send_journal
        )
        self.report.replay_holes.extend(holes)
        my_cums = tuple(
            sorted(
                (flow, cum)
                for (_peer, flow), cum in nic.transport.rx_cums(peer=hdr.node).items()
            )
        )
        nic.send_control(
            hdr.node,
            RejoinReply(
                node=self.node.node_id,
                incarnation=nic.incarnation,
                rx_cums=my_cums,
            ),
        )

    def _on_reply(self, delivery: Delivery) -> None:
        """A peer reported what it holds from us; replay the rest."""
        hdr: RejoinReply = delivery.message.header
        nic = self.node.nic
        self.report.replies_consumed.append(
            (self.node.node_id, hdr.node, self.node.sim.now)
        )
        if nic.transport is None:
            return
        holes = nic.transport.replay_flows(
            hdr.node, dict(hdr.rx_cums), self.send_journal
        )
        self.report.replay_holes.extend(holes)


class RecoveryManager:
    """Cluster-wide recovery stack: one agent per node.

    Usage::

        manager = RecoveryManager(cluster, RecoveryConfig(...)).start()
        manager.arm(injector)   # crash/restart events now drive recovery
        ...
        assert manager.report.complete
    """

    def __init__(self, cluster: Cluster, config: Optional[RecoveryConfig] = None) -> None:
        self.cluster = cluster
        self.cfg = config or RecoveryConfig()
        self.report = RecoveryReport()
        self.agents = {
            node.node_id: RecoveryAgent(node, self.cfg, self.report)
            for node in cluster.nodes
        }

    def start(self) -> "RecoveryManager":
        """Install journals/handlers and start the checkpoint daemons."""
        for agent in self.agents.values():
            agent.install()
        return self

    def arm(self, injector: FaultInjector) -> "RecoveryManager":
        """Drive recovery from the injector's crash/restart events."""
        injector.on_crash.append(self._node_crashed)
        injector.on_restart.append(self._node_restarted)
        return self

    def agent(self, node_id: int) -> RecoveryAgent:
        return self.agents[node_id]

    def _node_crashed(self, node_id: int) -> None:
        self.agents[node_id].on_crash()

    def _node_restarted(self, node_id: int) -> None:
        self.agents[node_id].on_restart()
