"""Integration: crash-restart recovery — checkpoint, rejoin, replay.

The acceptance matrix (motifs complete byte-identically after a mid-run
crash+restart, across seeds, with zero auditor violations), the full
producer/consumer crash→checkpoint→rejoin→replay cycle with every
handshake leg asserted, the regression guard that an amnesiac restart
*without* the recovery stack is not enough, the coordinated multi-epoch
rewind negotiation, and the ``--seed`` CLI plumbing used by CI to shard
the chaos matrix.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi, coordinated_rewind
from repro.experiments import cli
from repro.experiments.chaos import run_crash_restart, run_motif_under_chaos
from repro.faults import FaultInjector
from repro.nic.rvma import RvmaNicConfig
from repro.recovery import InvariantAuditor, RecoveryConfig, RecoveryManager
from repro.reliability import ReliabilityConfig

from tests.helpers import run_gens

SEEDS = (1, 2, 3)
MOTIFS = ("allreduce", "incast", "halo3d")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("motif", MOTIFS)
def test_motif_survives_crash_restart(motif, seed):
    """Acceptance: kill a node mid-run, restart it, and the motif still
    completes with results byte-identical to a fault-free run — with the
    invariant auditor watching every placement."""
    out = run_motif_under_chaos(motif, seed=seed, n_crashes=1)
    assert out.completed, f"{motif} crash-restart (seed {seed}): {out.error}"
    assert out.crash_restarts >= 1
    assert out.rejoins >= 1, "restarted node never completed its rejoin"
    assert out.replay_holes == 0, "journal retention too small for replay"
    assert out.identical_to_clean is True
    assert out.audit_violations == 0, out.audit_report
    assert out.gave_up == 0 and out.put_giveups == 0
    assert out.invariants_ok


def test_crash_without_recovery_stack_is_harmful():
    # Regression guard: the same crash schedule with recovery disabled
    # leaves the restarted node amnesiac (empty LUT, reset seqs that
    # peers treat as stale duplicates) and the motif cannot finish
    # exactly. Without this, the recovery stack could silently rot into
    # a no-op while the matrix above kept passing.
    out = run_motif_under_chaos(
        "incast", seed=1, n_crashes=1, recovery=False, compare_clean=False
    )
    assert not (out.completed and out.rejoins > 0)
    assert out.rejoins == 0


def _payload(step: int, size: int) -> bytes:
    return bytes((step * 37 + i) % 256 for i in range(size))


def _recovering_pair():
    rel = ReliabilityConfig(
        retransmit_timeout=8_000.0, max_backoff=50_000.0, max_retries=10
    )
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
        nic_config=RvmaNicConfig(reliability=rel),
    )
    aud = InvariantAuditor().attach(cl)
    mgr = RecoveryManager(
        cl, RecoveryConfig(checkpoint_interval_ns=5_000.0, horizon_ns=300_000.0)
    ).start()
    inj = FaultInjector(cl)
    mgr.arm(inj)
    return cl, aud, mgr, inj


def test_crash_restart_rejoin_cycle_end_to_end():
    """The full protocol walk: epochs land, the consumer crashes (NIC
    state destroyed), restarts from its last quiescent checkpoint, runs
    the rejoin handshake, peers replay the journal gap, and every
    remaining epoch arrives byte-identical — zero audit violations."""
    size = 2_048
    epochs = 6
    cl, aud, mgr, inj = _recovering_pair()
    inj.crash_restart(1, 23_000.0, 60_000.0)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def producer():
        yield 2_000.0
        for step in range(epochs):
            op = yield from api0.put(1, 0x9, data=_payload(step, size))
            yield op.local_done
            yield 7_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(epochs):
            yield from api1.post_buffer(win, size=size)
        datas = []
        for _step in range(epochs):
            info = yield from api1.wait_completion(win)
            datas.append(info.read_data())
        return datas

    _, datas = run_gens(cl.sim, producer(), consumer())

    # Payload integrity across the crash: every epoch, exact bytes.
    assert [d == _payload(s, size) for s, d in enumerate(datas)] == [True] * epochs
    # The crash really destroyed and rebuilt state, not a soft blip.
    nic1 = cl.node(1).nic
    assert nic1.incarnation == 1 and not nic1.failed
    assert len(inj.log.crashes) == 1 and len(inj.log.restarts) == 1
    # Every leg of the handshake ran and the report says so.
    rep = mgr.report
    assert rep.complete
    assert len(rep.rejoins) == 1 and rep.rejoins[0].node == 1
    assert rep.rejoins[0].mailboxes_restored >= 1
    assert rep.rejoins[0].peers_greeted == 1
    assert len(rep.hellos_serviced) == 1 and len(rep.replies_consumed) == 1
    assert rep.replay_holes == []
    # The restart restored from a real checkpoint, not a cold LUT.
    assert mgr.agent(1).daemon.taken >= 1
    assert cl.node(1).nic.stat("recovery.mailboxes_restored").value >= 1
    # The auditor watched the whole run, replay included: clean.
    report = aud.report()
    assert report["ok"], report["violations"]
    assert report["checked"]["placements"] >= epochs


def test_reposting_consumer_survives_crash_restart():
    """A consumer that re-posts every buffer it consumes keeps exact
    bytes across a crash.  The restore re-completes epochs the consumer
    already took, so those completions must not land in the line of a
    later posting of the same buffer: under a journaling NIC every
    posting keeps its own notification line."""
    size = 2_048
    epochs = 8
    cl, aud, mgr, inj = _recovering_pair()
    inj.crash_restart(1, 20_000.0, 50_000.0)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def producer():
        yield 2_000.0
        for step in range(epochs):
            op = yield from api0.put(1, 0x9, data=_payload(step, size))
            yield op.local_done
            yield 7_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(2):
            yield from api1.post_buffer(win, size=size)
        datas = []
        for _step in range(epochs):
            info = yield from api1.wait_completion(win)
            datas.append(info.read_data())
            yield from api1.post_buffer(win, buffer=info.record.buffer)
        return datas

    _, datas = run_gens(cl.sim, producer(), consumer())
    assert [d == _payload(s, size) for s, d in enumerate(datas)] == [True] * epochs
    assert len(mgr.report.rejoins) == 1
    assert aud.report()["ok"]


def test_checkpoint_deferred_stat_stays_quiescent_consistent():
    # Deferred checkpoints (non-quiescent pipeline at tick time) are
    # legal; what is not legal is finishing the run without any usable
    # checkpoint while epochs flowed.
    cl, _aud, mgr, inj = _recovering_pair()
    inj.crash_restart(1, 30_000.0, 65_000.0)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    size = 1_024

    def producer():
        yield 2_000.0
        for step in range(4):
            op = yield from api0.put(1, 0x9, data=_payload(step, size))
            yield op.local_done
            yield 9_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(4):
            yield from api1.post_buffer(win, size=size)
        for _ in range(4):
            yield from api1.wait_completion(win)

    run_gens(cl.sim, producer(), consumer())
    daemon = mgr.agent(1).daemon
    assert daemon.taken >= 1
    assert daemon.latest is not None and 0x9 in daemon.latest.mailboxes


def test_coordinated_rewind_converges_on_min_epoch():
    """Peers that completed different epoch counts negotiate the highest
    epoch *everyone* completed and rewind to it together (§IV-F applied
    cluster-wide after a restart)."""
    size = 512
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
        nic_config=RvmaNicConfig(),
    )
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def producer():
        yield 500.0
        for step in range(3):
            op = yield from api0.put(1, 0x9, data=_payload(step, size))
            yield op.local_done
            yield 2_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(4):
            yield from api1.post_buffer(win, size=size)
        for _ in range(3):
            yield from api1.wait_completion(win)
        # This node finished epochs 0..2; a peer only reached epoch 1.
        outcome = yield from coordinated_rewind(api1, win, peer_epochs=[1])
        return outcome

    _, outcome = run_gens(cl.sim, producer(), consumer())
    assert outcome.ok
    assert outcome.local_epoch == 2 and outcome.target_epoch == 1
    assert outcome.epochs_back == 1
    assert outcome.rewound is not None
    assert outcome.rewound.data == _payload(1, size)


def test_run_crash_restart_driver_aggregates():
    result = run_crash_restart(seeds=(1,), motifs=("incast",))
    assert result.name == "chaos-crash"
    assert len(result.rows) == 1
    assert result.summary["all_invariants_ok"] is True
    assert result.summary["total_audit_violations"] == 0


def test_cli_seed_flag_pins_chaos_matrix(monkeypatch, capsys):
    captured = {}

    def fake_run(seeds, **kw):
        captured["seeds"] = seeds
        return run_crash_restart(seeds=(1,), motifs=("incast",), n_nodes=4)

    entry = replace(cli.REGISTRY["chaos-crash"], run=fake_run)
    monkeypatch.setitem(cli.REGISTRY, "chaos-crash", entry)
    assert cli.main(["chaos-crash", "--seed", "7"]) == 0
    assert captured["seeds"] == (7,)
    capsys.readouterr()
    assert cli.main(["chaos-crash"]) == 0
    assert captured["seeds"] == (1, 2, 3)
    assert cli.main(["chaos-crash", "--seeds", "4,5"]) == 0
    assert captured["seeds"] == (4, 5)
