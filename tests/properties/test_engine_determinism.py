"""Determinism properties of the event engine.

The optimized scheduler (tuple payloads, the next-event slot, lazy
cancellation, GC pausing) must be *invisible*: a fixed seed yields the
identical event order, timestamps and metrics every run, whether the heap is
drained by ``run()``, in bounded windows, or single-stepped, and on
both the vectorized and the reference packet fabric.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.motifs import Incast, RvmaProtocol
from repro.sim import Simulator
from tests.helpers import ReferencePacketFabric

SEED = 0xD15EA5E


def _storm(sim: Simulator, log: list, n: int = 400) -> None:
    """A seeded storm mixing every scheduling API, including cancels."""
    rng = sim.rng.stream("storm")
    state = {"left": n}

    def fire(tag: str) -> None:
        log.append((sim.now, tag))
        if state["left"] <= 0:
            return
        state["left"] -= 1
        choice = int(rng.integers(0, 6))
        delay = float(int(rng.integers(0, 4)))
        if choice == 0:
            sim.post(delay, fire, "post")
        elif choice == 1:
            sim.schedule(delay, fire, "sched")
        elif choice == 2:
            sim.schedule(delay, fire, "prio", priority=-10)
        elif choice == 3:
            dead = sim.schedule(delay + 1.0, fire, "dead")
            dead.cancel()
            sim.post(delay, fire, "after-cancel")
        elif choice == 4:
            sim.post(delay, fire, "p0")
            sim.post(delay, fire, "p1")
        else:
            sim.schedule(delay, fire, "s0")
            sim.schedule(delay, fire, "s1").cancel()

    sim.post(0.0, fire, "seed")


def _run_storm(step: bool = False) -> tuple:
    sim = Simulator(seed=SEED)
    log: list = []
    _storm(sim, log)
    if step:
        while sim.step():
            pass
    else:
        sim.run()
    return log, sim.now, sim.events_executed, sim.pending_events


def test_same_seed_same_event_order():
    a = _run_storm()
    b = _run_storm()
    assert a == b


def test_run_vs_step_identical():
    drained = _run_storm(step=False)
    stepped = _run_storm(step=True)
    assert drained == stepped


def test_bounded_runs_match_full_drain():
    """``run(until=...)`` windows and ``run(max_events=...)`` slices go
    through the same loop as the full drain; stitched together they
    must reproduce the full drain exactly."""
    results = []
    for bound in ("drain", "until", "max_events"):
        sim = Simulator(seed=SEED)
        log: list = []
        _storm(sim, log)
        if bound == "drain":
            sim.run()
        elif bound == "until":
            while sim.pending_events:
                sim.run(until=sim.now + 1.5)
        else:
            while sim.pending_events:
                sim.run(max_events=7)
        results.append((log, sim.now, sim.events_executed, sim.pending_events))
    assert results[0] == results[1] == results[2]


def _run_incast() -> tuple:
    cl = Cluster.build(
        n_nodes=5, topology="star", nic_type="rvma", fidelity="packet", seed=SEED
    )
    res = Incast(cl, RvmaProtocol(), msgs_per_client=3, msg_bytes=8 * 1024).run()
    return res.messages, res.bytes_moved, res.elapsed, cl.sim.events_executed, cl.sim.now


def test_motif_metrics_deterministic(fabric_impl):
    assert _run_incast() == _run_incast()


def test_motif_identical_on_reference_fabric(monkeypatch):
    """The vectorized packet fabric must match the per-packet reference
    fabric on every *observable*: messages, bytes, elapsed time and
    final simulated clock.  Event counts are exempt — the vectorized
    fabric intentionally schedules one event per link-timestep instead
    of two per packet-hop, so it executes fewer events for the same
    physics (the fabric conformance suite pins the full
    delivery/metric/span equivalence)."""
    import repro.cluster.builder as builder

    fast = _run_incast()
    monkeypatch.setattr(builder, "PacketFabric", ReferencePacketFabric)
    ref = _run_incast()
    f_msgs, f_bytes, f_elapsed, f_events, f_now = fast
    r_msgs, r_bytes, r_elapsed, r_events, r_now = ref
    assert (f_msgs, f_bytes, f_elapsed, f_now) == (r_msgs, r_bytes, r_elapsed, r_now)
    assert f_events <= r_events


def test_trace_stream_deterministic(fabric_impl):
    """With tracing on, the recorded span stream is identical per seed."""

    def traced() -> list:
        cl = Cluster.build(
            n_nodes=5, topology="star", nic_type="rvma", fidelity="packet",
            seed=SEED,
        )
        cl.sim.spans.enable()
        Incast(cl, RvmaProtocol(), msgs_per_client=2, msg_bytes=4 * 1024).run()
        return [
            (s.start, s.end, s.category, s.name, tuple(sorted(s.fields.items())))
            for s in cl.sim.spans
        ]

    first = traced()
    assert first, "expected a non-empty trace"
    assert first == traced()
