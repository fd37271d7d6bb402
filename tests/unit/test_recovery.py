"""Unit: crash-restart recovery building blocks.

Journals, checkpoints, the rejoin bookkeeping, the failure detector's
reinstate path, the initiator give-up counters, and — load-bearing for
the whole robustness story — the runtime invariant auditor catching a
seeded double-placement corruption instead of letting it pass silently.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi, negotiate_consistent_epoch
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.recovery import (
    AuditError,
    CheckpointDaemon,
    InvariantAuditor,
    OpJournal,
    SendJournal,
)
from repro.reliability import ReliabilityConfig

from tests.helpers import run_gens


def _cluster(reliability=False, **nic_kw):
    rel = (
        ReliabilityConfig(retransmit_timeout=5_000.0, max_retries=6)
        if reliability
        else None
    )
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        nic_config=RvmaNicConfig(reliability=rel, **nic_kw),
    )


# ---------------------------------------------------------------------- journals


def test_send_journal_replay_coverage_and_holes():
    j = SendJournal(retain=8)
    for seq in range(1, 6):
        j.note_send(dst=1, flow=0x9, seq=seq, size=64, header=f"h{seq}", data=b"", mode=None)
    entries, hole = j.entries_after(1, 0x9, cum=2)
    assert [e.seq for e in entries] == [3, 4, 5]
    assert hole is None
    assert j.next_seq_hint(1, 0x9) == 6
    assert j.flows_for(1) == [0x9]
    assert j.peers() == {1}
    # An unknown flow is empty coverage, not an error.
    assert j.entries_after(1, 0xFF, cum=0) == ([], None)


def test_send_journal_bounded_retention_reports_hole():
    j = SendJournal(retain=3)
    for seq in range(1, 7):  # journal retains only seqs 4..6
        j.note_send(dst=2, flow=0x1, seq=seq, size=64, header=None, data=b"", mode=None)
    entries, hole = j.entries_after(2, 0x1, cum=1)
    assert [e.seq for e in entries] == [4, 5, 6]
    assert hole == 4  # peer needs seq 2 but the oldest retained is 4
    entries, hole = j.entries_after(2, 0x1, cum=3)
    assert hole is None  # peer's edge reaches the retained range


def test_op_journal_reinit_starts_fresh_incarnation():
    from repro.nic.lut import BufferMode, EpochType

    j = OpJournal()
    j.note_init(0x9, EpochType.EPOCH_BYTES, BufferMode.STEERED)
    j.note_post(0x9, "pb0")
    j.note_close(0x9)
    j.note_catch_all(0x9)
    assert j.windows[0x9].closed
    assert len(j.windows[0x9].posts) == 1
    j.note_init(0x9, EpochType.EPOCH_OPS, BufferMode.MANAGED)
    assert not j.windows[0x9].closed
    assert j.windows[0x9].posts == []
    assert j.windows[0x9].threshold_type is EpochType.EPOCH_OPS
    assert j.catch_all == 0x9
    # Posts against never-initialised windows are ignored, not errors.
    j.note_post(0xDEAD, "pb")
    assert 0xDEAD not in j.windows


# ---------------------------------------------------------------------- checkpoints


def test_checkpoint_daemon_snapshots_window_state():
    cl = _cluster()
    api1 = RvmaApi(cl.node(1))

    def producer():
        yield 500.0
        op = yield from RvmaApi(cl.node(0)).put(1, 0x9, data=bytes(range(128)))
        yield op.local_done

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=128)
        yield from api1.post_buffer(win, size=128)
        yield from api1.post_buffer(win, size=128)
        info = yield from api1.wait_completion(win)
        return info

    run_gens(cl.sim, producer(), consumer())
    daemon = CheckpointDaemon(cl.node(1), interval_ns=1_000.0, horizon_ns=10_000.0)
    ckpt = daemon.take()
    assert ckpt is not None and daemon.taken == 1
    snap = ckpt.mailboxes[0x9]
    assert snap.epoch == 1  # one epoch completed
    assert len(snap.retired) == 1 and snap.retired[0].length == 128
    assert snap.active is not None and snap.active.counter == 0


def test_checkpoint_defers_while_pipeline_not_quiescent():
    cl = _cluster()
    nic = cl.node(1).nic
    daemon = CheckpointDaemon(cl.node(1), interval_ns=1_000.0, horizon_ns=10_000.0)
    nic._inflight_admits = 1  # data admitted but DMA not landed
    assert daemon.take() is None
    assert nic.stat("recovery.checkpoints_deferred").value == 1
    nic._inflight_admits = 0
    assert daemon.take() is not None
    # A crashed NIC has nothing to read either.
    nic.failed = True
    assert daemon.take() is None


# ---------------------------------------------------------------------- auditor


def test_auditor_catches_seeded_double_placement():
    """The acceptance scenario: corrupt the placement path on purpose —
    the same (epoch, offset, size) range written twice with divergent
    bytes — and the fail-fast auditor must raise, not shrug."""
    cl = _cluster()
    aud = InvariantAuditor(fail_fast=True).attach(cl)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    failures = []

    def producer():
        yield 500.0
        op = yield from api0.put(1, 0x9, data=b"\xAA" * 64)
        yield op.local_done
        yield 2_000.0
        # Seeded corruption: a second placement of the same range with
        # different bytes (a buggy replay / dedup failure would do this).
        try:
            op = yield from api0.put(1, 0x9, data=b"\xBB" * 64)
            yield op.local_done
            yield 2_000.0
        except AuditError as exc:  # pragma: no cover - depends on driver
            failures.append(exc)

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=256)
        yield from api1.post_buffer(win, size=256)

    with pytest.raises(AuditError) as err:
        run_gens(cl.sim, producer(), consumer())
    v = err.value.violation
    assert v.kind == "double-placement"
    assert v.node == 1 and v.mailbox == 0x9
    assert "divergent bytes" in v.detail
    assert not aud.ok and aud.violations[0] is v


def test_auditor_collect_mode_reports_without_raising():
    cl = _cluster()
    aud = InvariantAuditor().attach(cl)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def producer():
        yield 500.0
        for _ in range(2):  # identical bytes, same range: still a double
            op = yield from api0.put(1, 0x9, data=b"\xCC" * 32)
            yield op.local_done
            yield 2_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=128)
        yield from api1.post_buffer(win, size=128)

    run_gens(cl.sim, producer(), consumer())
    report = aud.report()
    assert report["ok"] is False
    assert any("double-placement" in line for line in report["violations"])
    assert report["checked"]["placements"] == 2
    assert MetricsRegistry.collect(cl).counters["recovery.audit_violations"] == 1


def test_auditor_sanctions_byte_identical_replay_only():
    cl = _cluster()
    aud = InvariantAuditor().attach(cl)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    nic1 = cl.node(1).nic

    def producer():
        yield 500.0
        op = yield from api0.put(1, 0x9, data=b"\x11" * 64)
        yield op.local_done
        yield 2_000.0
        # A restore sanctions replay through the epoch active at crash.
        aud.note_restore(nic1, {0x9: 0}, {})
        op = yield from api0.put(1, 0x9, data=b"\x11" * 64)  # identical: fine
        yield op.local_done
        yield 2_000.0
        assert aud.ok
        op = yield from api0.put(1, 0x9, data=b"\x22" * 64)  # divergent: flagged
        yield op.local_done
        yield 2_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=256)
        yield from api1.post_buffer(win, size=256)

    run_gens(cl.sim, producer(), consumer())
    kinds = [v.kind for v in aud.violations]
    assert kinds == ["replay-divergence"]


def test_auditor_flags_transport_double_dispatch():
    aud = InvariantAuditor()
    aud.on_transport_dispatch(node=1, peer=0, flow=0x9, seq=7)
    aud.on_transport_dispatch(node=1, peer=0, flow=0x9, seq=8)
    assert aud.ok
    aud.on_transport_dispatch(node=1, peer=0, flow=0x9, seq=7)
    assert [v.kind for v in aud.violations] == ["double-dispatch"]
    # A restore prunes seqs past the rewound edge: re-dispatch is legal.
    aud2 = InvariantAuditor()

    class _N:
        node_id = 1

    aud2.on_transport_dispatch(node=1, peer=0, flow=0x9, seq=7)
    aud2.note_restore(_N(), {}, {(0, 0x9): 5})
    aud2.on_transport_dispatch(node=1, peer=0, flow=0x9, seq=7)
    assert aud2.ok


# ---------------------------------------------------------------------- give-up counters


def test_put_retry_budget_exhaustion_counts_as_giveup():
    # No window ever initialised: every put NACKs NO_MAILBOX and the
    # initiator retries until its budget dies -> one put_giveup.
    cl = _cluster(put_retries=2, put_retry_timeout=200.0)
    api0 = RvmaApi(cl.node(0))

    def producer():
        yield 100.0
        op = yield from api0.put(1, 0x9, data=b"y" * 16)
        yield op.local_done

    run_gens(cl.sim, producer())
    nic0 = cl.node(0).nic
    assert nic0.stat("nic.rvma.put_retries").value == 2
    assert nic0.stat("nic.rvma.put_giveups").value == 1
    assert nic0.stat("nic.rvma.puts_lost").value == 1


# ---------------------------------------------------------------------- detector / epochs


def test_detector_reinstate_clears_suspicion():
    cl = _cluster(reliability=True)
    det = cl.node(0).nic.detector
    det.reinstate(1)  # not suspected: no-op
    assert cl.node(0).nic.stat("detector.peers_reinstated").value == 0
    det.force_suspect(1, "test")
    assert det.is_suspected(1)
    det.reinstate(1)
    assert not det.is_suspected(1)
    assert cl.node(0).nic.stat("detector.peers_reinstated").value == 1


def test_transport_shutdown_silences_pending_state():
    cl = _cluster(reliability=True)
    api0 = RvmaApi(cl.node(0))
    cl.node(1).nic.fail()  # never acks

    def producer():
        yield 100.0
        op = yield from api0.put(1, 0x9, data=b"z" * 16)
        yield op.local_done

    tr = cl.node(0).nic.transport

    def killer():
        yield 6_000.0  # after the first send, before the budget dies
        assert tr.unacked(1) == 1
        tr.shutdown()

    run_gens(cl.sim, producer(), killer())
    assert tr.unacked() == 0
    assert tr.journal is None
    assert MetricsRegistry.collect(cl).counters.get("transport.gave_up", 0) == 0


def test_negotiate_consistent_epoch_is_min_of_views():
    assert negotiate_consistent_epoch([4, 7, 5]) == 4
    assert negotiate_consistent_epoch([3]) == 3
    assert negotiate_consistent_epoch([2, -1]) == -1
    with pytest.raises(ValueError):
        negotiate_consistent_epoch([])
