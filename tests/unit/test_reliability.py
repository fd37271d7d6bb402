"""Unit tests: reliability transport, failure detector, fault injector.

Covers the retransmission backoff schedule, duplicate suppression at
the receiver, retry-budget exhaustion feeding the failure detector,
per-fault injector selectors, fault-filter chaining/restore, and the
heartbeat failure detector's timing rules.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import FaultInjector
from repro.network.message import Delivery, Message
from repro.nic.headers import ReliAckHeader, SeqHeader
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.reliability import ReliabilityConfig
from repro.reliability.transport import _RxFlow

from tests.helpers import run_gens

MAILBOX = 0xAB


def _cluster(cfg: ReliabilityConfig = None, fidelity: str = "flow", seed: int = 7):
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity=fidelity, seed=seed,
        nic_config=RvmaNicConfig(
            reliability=cfg
            or ReliabilityConfig(
                retransmit_timeout=5_000.0,
                heartbeat_interval=10_000.0,
                min_suspicion_timeout=60_000.0,
            )
        ),
    )


def _delivery(src: int, dst: int, data: bytes = b"\x42" * 8) -> Delivery:
    msg = Message(src=src, dst=dst, size=len(data), data=data)
    return Delivery(msg, arrival_time=0.0, hops=1)


# --------------------------------------------------------------- transport


def test_backoff_schedule_grows_geometrically_and_caps():
    cfg = ReliabilityConfig(
        retransmit_timeout=1_000.0, backoff_factor=2.0, max_backoff=4_000.0,
        jitter_frac=0.1, max_retries=5,
    )
    cl = _cluster(cfg)
    api0 = RvmaApi(cl.node(0))
    # Black hole: every data envelope vanishes; ACKs would never exist.
    cl.fabric.fault_filter = lambda d: isinstance(d.message.header, SeqHeader)

    transport = cl.node(0).nic.transport
    times = []
    orig = transport._transmit

    def recording_transmit(rec):
        times.append(cl.sim.now)
        return orig(rec)

    transport._transmit = recording_transmit

    def tx():
        op = yield from api0.put(1, MAILBOX, size=64)
        yield op.local_done

    run_gens(cl.sim, tx())

    assert len(times) == 1 + cfg.max_retries  # original + every retry
    gaps = [b - a for a, b in zip(times, times[1:])]
    # Nominal schedule 1000, 2000, 4000, 4000(cap), 4000(cap); each gap
    # stretched by the deterministic jitter in [1, 1+jitter_frac].
    nominal = [1_000.0, 2_000.0, 4_000.0, 4_000.0, 4_000.0]
    for gap, base in zip(gaps, nominal):
        assert base <= gap <= base * (1.0 + cfg.jitter_frac) + 1e-9
    counters = MetricsRegistry.collect(cl).counters
    assert counters["transport.retransmits"] == cfg.max_retries
    assert counters["transport.gave_up"] == 1
    assert transport.unacked() == 0  # abandoned, not leaked


def test_retry_budget_exhaustion_raises_peer_failed():
    cfg = ReliabilityConfig(retransmit_timeout=1_000.0, max_retries=3)
    cl = _cluster(cfg)
    api0 = RvmaApi(cl.node(0))
    cl.fabric.fault_filter = lambda d: isinstance(d.message.header, SeqHeader)

    def tx():
        op = yield from api0.put(1, MAILBOX, size=64)
        yield op.local_done
        record = yield from api0.wait_peer_failure(1)
        return record

    (record,) = run_gens(cl.sim, tx())
    assert record.peer == 1
    assert "retry budget" in record.reason
    assert api0.peer_suspected(1)


def test_lost_acks_cause_dup_suppression_not_double_placement():
    nbytes = 2_048
    cfg = ReliabilityConfig(retransmit_timeout=20_000.0, max_retries=8)
    cl = _cluster(cfg, fidelity="packet")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    # Drop the first two ACKs: the data arrives, the sender can't know,
    # retransmits, and the receiver must suppress the duplicates.
    lost = {"n": 0}

    def eat_acks(d):
        if isinstance(d.message.header, ReliAckHeader) and lost["n"] < 2:
            lost["n"] += 1
            return True
        return False

    cl.fabric.fault_filter = eat_acks
    payload = bytes(i % 256 for i in range(nbytes))
    got = {}

    def rx():
        win = yield from api1.init_window(MAILBOX, epoch_threshold=nbytes)
        yield from api1.post_buffer(win, size=nbytes)
        info = yield from api1.wait_completion(win)
        got["data"] = info.read_data()

    def tx():
        op = yield from api0.put(1, MAILBOX, data=payload)
        yield op.local_done

    run_gens(cl.sim, rx(), tx())
    assert got["data"] == payload
    assert lost["n"] == 2
    assert MetricsRegistry.collect(cl).counters["transport.dups_suppressed"] >= 1
    # Placement stayed idempotent: exactly one buffer's worth of bytes.
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == nbytes
    assert cl.node(1).nic.stat("nic.rvma.epochs_completed").value == 1
    assert cl.node(0).nic.transport.unacked() == 0


def test_rx_flow_cumulative_edge_and_sacks():
    rx = _RxFlow()
    rx.advance(2)  # out of order: seq 1 still missing
    assert rx.seen(2) and not rx.seen(1)
    assert rx.cum == 0 and rx.complete == {2}
    rx.advance(1)  # hole filled: edge slides past both
    assert rx.cum == 2 and rx.complete == set()
    assert rx.seen(1) and rx.seen(2) and not rx.seen(3)


def test_reliable_put_survives_heavy_random_loss():
    nbytes = 8_192
    cfg = ReliabilityConfig(retransmit_timeout=8_000.0, max_retries=10)
    cl = _cluster(cfg, fidelity="packet")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    FaultInjector(cl).drop_messages(0.3)
    payload = bytes((7 * i) % 256 for i in range(nbytes))
    got = {}

    def rx():
        win = yield from api1.init_window(MAILBOX, epoch_threshold=nbytes)
        yield from api1.post_buffer(win, size=nbytes)
        info = yield from api1.wait_completion(win)
        got["data"] = info.read_data()

    def tx():
        op = yield from api0.put(1, MAILBOX, data=payload)
        yield op.local_done

    run_gens(cl.sim, rx(), tx())
    assert got["data"] == payload
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == nbytes


# --------------------------------------------------------------- injector


def test_drop_and_corrupt_keep_independent_selectors():
    cl = Cluster.build(n_nodes=3, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    to_node1 = lambda d: d.message.dst == 1  # noqa: E731
    from_node0 = lambda d: d.message.src == 0  # noqa: E731
    inj.drop_messages(1.0, selector=to_node1)
    inj.corrupt_payloads(1.0, selector=from_node0)
    # Regression: these used to share one selector slot, so the second
    # call silently re-scoped the first fault.
    assert inj._drop_selector is to_node1
    assert inj._corrupt_selector is from_node0

    fault_filter = cl.fabric.fault_filter
    assert fault_filter(_delivery(src=2, dst=1)) is True  # drop rule
    d = _delivery(src=0, dst=2, data=b"\x00" * 4)
    assert fault_filter(d) is False  # not dropped...
    assert d.message.data[0] == 0xFF  # ...but corrupted (src 0 rule)
    d2 = _delivery(src=2, dst=0, data=b"\x00" * 4)
    assert fault_filter(d2) is False
    assert d2.message.data[0] == 0x00  # untouched: matches neither


def test_fault_filters_chain_and_clear_restores_previous_hook():
    cl = Cluster.build(n_nodes=4, topology="star", nic_type="rvma", fidelity="flow")
    prev_calls = []
    prev = lambda d: (prev_calls.append(d), False)[1]  # noqa: E731
    cl.fabric.fault_filter = prev

    inj = FaultInjector(cl)
    inj.drop_messages(1.0, selector=lambda d: d.message.dst == 1)
    assert cl.fabric.fault_filter is not prev
    assert cl.fabric.fault_filter(_delivery(0, 1)) is True
    assert not prev_calls  # short-circuits on its own drop
    assert cl.fabric.fault_filter(_delivery(0, 3)) is False
    assert len(prev_calls) == 1  # passed through to the prior hook

    # A second injector chains onto the first instead of clobbering it.
    inj2 = FaultInjector(cl)
    inj2.drop_messages(1.0, selector=lambda d: d.message.dst == 2)
    assert cl.fabric.fault_filter(_delivery(0, 1)) is True  # inj's rule
    assert cl.fabric.fault_filter(_delivery(0, 2)) is True  # inj2's rule
    assert cl.fabric.fault_filter(_delivery(0, 3)) is False

    inj2.clear()  # head of the chain: restores inj's filter...
    assert cl.fabric.fault_filter(_delivery(0, 2)) is False
    assert cl.fabric.fault_filter(_delivery(0, 1)) is True
    inj.clear()  # ...and unwinding fully restores the original hook.
    assert cl.fabric.fault_filter is prev


def test_cleared_mid_chain_injector_becomes_pass_through():
    cl = Cluster.build(n_nodes=3, topology="star", nic_type="rvma", fidelity="flow")
    inj1, inj2 = FaultInjector(cl), FaultInjector(cl)
    inj1.drop_messages(1.0, selector=lambda d: d.message.dst == 1)
    inj2.drop_messages(1.0, selector=lambda d: d.message.dst == 2)
    inj1.clear()  # not at the head: must disarm without breaking inj2
    assert cl.fabric.fault_filter(_delivery(0, 1)) is False  # inj1 off
    assert cl.fabric.fault_filter(_delivery(0, 2)) is True  # inj2 alive


def test_drop_window_rejects_empty_interval():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    with pytest.raises(ValueError):
        inj.drop_window(5_000.0, 5_000.0)
    with pytest.raises(ValueError):
        inj.drop_window(5_000.0, 1_000.0)


def test_window_drops_are_attributed_by_kind():
    cl = _cluster()
    api0 = RvmaApi(cl.node(0))
    inj = FaultInjector(cl)
    inj.partition({1}, start=0.0, end=2_000.0)

    def tx():
        op = yield from api0.put(1, MAILBOX, size=64)
        yield op.local_done

    run_gens(cl.sim, tx())
    assert inj.log.window_drops.get("partition", 0) >= 1
    assert inj.log.total_window_drops == inj.log.messages_dropped
    assert cl.sim.stats.counter("faults.drops_partition").value >= 1
    assert any("partition" in line for line in inj.summary())


# --------------------------------------------------------------- detector


def test_detector_suspects_dead_peer_within_timeout():
    cl = _cluster()
    api1 = RvmaApi(cl.node(1))
    inj = FaultInjector(cl)
    t_kill = 50_000.0
    inj.fail_node_at(0, t_kill)

    def watcher():
        record = yield from api1.wait_peer_failure(0)
        return record

    (record,) = run_gens(cl.sim, watcher())
    cfg = cl.node(1).nic.detector.cfg
    assert record.peer == 0
    assert record.time > t_kill
    # Bounded detection: suspicion timeout plus at most two tick periods.
    assert record.time <= t_kill + cfg.min_suspicion_timeout + 2 * cfg.heartbeat_interval


def test_watch_deadline_lets_healthy_run_terminate():
    cl = _cluster()
    api1 = RvmaApi(cl.node(1))
    watch = api1.watch_peer(0, deadline=100_000.0)
    cl.sim.run()  # would spin forever if the ping loop never unwound
    assert not watch.active
    assert not api1.peer_suspected(0)


def test_force_suspect_resolves_future_immediately():
    cl = _cluster()
    api1 = RvmaApi(cl.node(1))
    fut = api1.peer_failure(0)
    cl.node(1).nic.detector.force_suspect(0, "unit-test evidence")
    assert fut.done
    assert fut.value.peer == 0 and fut.value.reason == "unit-test evidence"
    # Watching an already-suspected peer resolves without a ping loop.
    assert api1.peer_failure(0).done


def test_suspicion_timeout_adapts_to_observed_intervals():
    cl = _cluster()
    det = cl.node(1).nic.detector
    cfg = det.cfg
    assert det.suspicion_timeout(0) == cfg.min_suspicion_timeout  # floor
    # Feed slow proofs of life: the adaptive term overtakes the floor.
    for t in (0.0, 100_000.0, 200_000.0, 300_000.0):
        cl.sim.now = t  # direct clock poke: unit-testing the math only
        det.heard_from(0)
    assert det.suspicion_timeout(0) == pytest.approx(cfg.suspicion_phi * 100_000.0)
