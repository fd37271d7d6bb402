"""Integration: chaos harness — motifs under composed fault schedules.

Fixed-seed matrix of the :mod:`repro.experiments.chaos` harness, the
invariants the reliability layer guarantees, the regression guard that
the injected faults are genuinely harmful without it, and the
acceptance scenario: a node killed mid-epoch is reported by the failure
detector within the suspicion timeout and recovered automatically with
``mpix_rewind``.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi, recover_on_failure
from repro.experiments.chaos import CHAOS_RELIABILITY, run_chaos, run_motif_under_chaos
from repro.faults import FaultInjector
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.reliability import ReliabilityConfig

from tests.helpers import run_gens

SEEDS = (1, 2, 3)
MOTIFS = ("allreduce", "incast", "halo3d")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("motif", MOTIFS)
def test_motif_survives_chaos_schedule(motif, seed):
    out = run_motif_under_chaos(motif, seed=seed, drop_prob=0.1)
    assert out.completed, f"{motif} under chaos (seed {seed}): {out.error}"
    # No message abandoned: every loss recovered within the retry budget.
    assert out.gave_up == 0
    # Exactness: application results byte/count-identical to a clean run.
    assert out.identical_to_clean is True
    # Bounded recovery: retransmissions proportionate to actual losses,
    # not a runaway storm (each drop costs at most a few timeouts).
    assert out.retransmits <= 3 * out.deliveries_dropped + 20
    assert out.invariants_ok


@pytest.mark.parametrize("motif", ("allreduce", "incast"))
def test_same_faults_without_reliability_demonstrably_fail(motif):
    # The acceptance regression guard: an identical schedule plus 20%
    # uniform loss stalls the unprotected NICs (lost puts never placed,
    # EPOCH_BYTES never reached, ranks deadlock).
    out = run_motif_under_chaos(
        motif, seed=1, reliability=False, drop_prob=0.2, compare_clean=False
    )
    assert not out.completed
    assert "deadlock" in out.error


def test_chaos_driver_aggregates_invariants():
    result = run_chaos(seeds=(1,), motifs=("incast",))
    assert result.name == "chaos"
    assert len(result.rows) == 1
    assert result.summary["all_invariants_ok"] is True


def _payload(step: int, size: int) -> bytes:
    return bytes((step * 41 + i) % 256 for i in range(size))


def test_failure_detector_triggers_automatic_rewind():
    """Node killed mid-epoch: detected within the suspicion timeout and
    recovered via the automatic §IV-F rewind path (no fixed sleeps)."""
    size = 4_096
    cfg = ReliabilityConfig(
        retransmit_timeout=5_000.0,
        heartbeat_interval=10_000.0,
        min_suspicion_timeout=60_000.0,
    )
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        nic_config=RvmaNicConfig(reliability=cfg),
    )
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    inj = FaultInjector(cl)

    def producer():
        yield 2_000.0
        for step in range(2):
            op = yield from api0.put(1, 0x9, data=_payload(step, size))
            yield op.local_done
            yield 5_000.0
        # Third epoch: half the bytes go out, then the node dies.
        half = _payload(2, size)[: size // 2]
        op = yield from api0.put(1, 0x9, data=half, size=len(half))
        yield op.local_done
        inj.fail_node_at(0, cl.sim.now + 1.0)

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(4):
            yield from api1.post_buffer(win, size=size)
        for step in range(2):
            info = yield from api1.wait_completion(win)
            assert info.read_data() == _payload(step, size)
        # Not a timeout-and-hope sleep: the failure detector watches the
        # producer and recovery runs the moment suspicion fires.
        recovery = yield from recover_on_failure(api1, win, peer=0)
        return recovery

    _, recovery = run_gens(cl.sim, producer(), consumer())

    assert recovery.failure.peer == 0
    (_, t_kill), = inj.log.node_failures
    detection_latency = recovery.failure.time - t_kill
    assert 0 < detection_latency <= cfg.min_suspicion_timeout + 2 * cfg.heartbeat_interval
    # Two epochs completed in hardware; the in-progress third is garbage.
    assert recovery.consistent_epoch == 1
    assert recovery.rewound is not None
    assert recovery.rewound.data == _payload(1, size)
    assert recovery.recovery_ns >= 0.0
    assert MetricsRegistry.collect(cl).counters["detector.peers_suspected"] == 1


def test_chaos_reliability_budget_covers_generated_windows():
    # The harness config must out-wait the longest window ChaosSchedule
    # can generate, or give-ups under chaos would be schedule luck.
    cfg = CHAOS_RELIABILITY
    total, timeout = 0.0, cfg.retransmit_timeout
    for _ in range(cfg.max_retries):
        total += timeout
        timeout = min(timeout * cfg.backoff_factor, cfg.max_backoff)
    from repro.experiments.chaos import DEFAULT_MAX_WINDOW_NS

    assert total > DEFAULT_MAX_WINDOW_NS
