"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    Future,
    SimulationError,
    Simulator,
    spawn,
)


def test_schedule_runs_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(30.0, out.append, "c")
    sim.schedule(10.0, out.append, "a")
    sim.schedule(20.0, out.append, "b")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 30.0


def test_equal_time_runs_in_insertion_order():
    sim = Simulator()
    out = []
    for label in "abcde":
        sim.schedule(5.0, out.append, label)
    sim.run()
    assert out == list("abcde")


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    out = []
    sim.schedule(5.0, out.append, "normal")
    sim.schedule(5.0, out.append, "low", priority=PRIORITY_LOW)
    sim.schedule(5.0, out.append, "high", priority=PRIORITY_HIGH)
    sim.run()
    assert out == ["high", "normal", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancel_skips_event():
    sim = Simulator()
    out = []
    ev = sim.schedule(5.0, out.append, "cancelled")
    sim.schedule(6.0, out.append, "kept")
    ev.cancel()
    sim.run()
    assert out == ["kept"]


def test_run_until_stops_at_boundary():
    sim = Simulator()
    out = []
    sim.schedule(10.0, out.append, "early")
    sim.schedule(100.0, out.append, "late")
    sim.run(until=50.0)
    assert out == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert out == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=3)
    assert out == [0, 1, 2]


def test_events_chain_from_callbacks():
    sim = Simulator()
    out = []

    def first():
        out.append(("first", sim.now))
        sim.schedule(5.0, second)

    def second():
        out.append(("second", sim.now))

    sim.schedule(10.0, first)
    sim.run()
    assert out == [("first", 10.0), ("second", 15.0)]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_events_counts_live_only():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    ev.cancel()
    assert sim.pending_events == 1


def test_run_not_reentrant():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
        seen.append(True)

    sim.schedule(1.0, reenter)
    sim.run()
    assert seen == [True]


def test_step_inside_an_event_raises_and_keeps_its_wake():
    """A nested ``step()`` must not close the outer drain's next-event
    slot: the wake the event made still runs, and the outer run ends
    cleanly instead of tripping over the emptied slot."""
    sim = Simulator()
    fut = Future(sim)
    got, errors = [], []

    def waiter():
        got.append((yield fut))

    def outer():
        fut.resolve(7)
        try:
            sim.step()
        except SimulationError:
            errors.append("step")

    spawn(sim, waiter())
    sim.post(1.0, outer)
    sim.run()
    assert errors == ["step"] and got == [7]


def test_run_inside_a_step_raises():
    sim = Simulator()
    errors, later = [], []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            errors.append("run")

    sim.post(1.0, reenter)
    sim.post(2.0, later.append, 2.0)
    assert sim.step() is True
    assert errors == ["run"] and later == [] and sim.now == 1.0
    sim.run()
    assert later == [2.0]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_identical_seeds_identical_schedules():
    def build(seed):
        sim = Simulator(seed=seed)
        trace = []
        for i in range(20):
            jitter = sim.rng.random("test") * 10
            sim.schedule(jitter, trace.append, i)
        sim.run()
        return trace, sim.now

    t1, now1 = build(42)
    t2, now2 = build(42)
    t3, _ = build(43)
    assert t1 == t2 and now1 == now2
    assert t1 != t3  # different seed, different jitter ordering


# --- lazy cancellation -------------------------------------------------------


def test_cancelled_entry_leaves_the_heap_once_the_drain_reaches_it():
    # No compaction: a cancelled entry stays queued behind earlier live
    # ones and is dropped when it surfaces, so a cancelled timer leaves
    # by its own deadline.
    sim = Simulator(seed=7)
    log = []
    sim.schedule(1_000.0, log.append, "a")
    sim.schedule(2_000.0, log.append, "cancelled").cancel()
    sim.schedule(3_000.0, log.append, "b")
    assert sim.pending_events == 2 and len(sim._heap) == 3
    sim.run(until=500.0)
    assert len(sim._heap) == 3
    sim.run(until=2_500.0)
    assert log == ["a"] and len(sim._heap) == 1
    sim.run()
    assert log == ["a", "b"] and not sim._heap and sim.pending_events == 0


def test_cancellation_preserves_survivors_and_order():
    sim = Simulator(seed=7)
    log = []
    keep = []
    for i in range(500):
        ev = sim.schedule(float(1000 + i), log.append, i)
        if i % 50 == 0:
            keep.append(i)
        else:
            ev.cancel()
    assert sim.pending_events == len(keep)
    sim.run()
    assert log == keep


def test_pending_events_is_exact_across_mixed_apis():
    sim = Simulator(seed=7)
    sim.post(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    sim.post_at(3.0, lambda: None)
    sim.wake(lambda _: None, None)
    evs = [sim.schedule_at(4.0, lambda: None) for _ in range(2)]
    assert sim.pending_events == 6
    ev.cancel()
    evs[0].cancel()
    assert sim.pending_events == 4
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_executed == 4
