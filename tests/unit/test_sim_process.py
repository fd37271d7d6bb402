"""Unit tests for the coroutine process layer."""

import pytest

from repro.sim import AllOf, Future, SimProcess, Simulator, spawn
from repro.sim.event import PRIORITY_LOW


def test_sleep_advances_time():
    sim = Simulator()

    def proc():
        yield 10.0
        yield 5
        return sim.now

    p = spawn(sim, proc())
    sim.run()
    assert p.finished and p.result == 15.0


def test_future_wait_receives_value():
    sim = Simulator()
    fut = Future(sim)

    def proc():
        value = yield fut
        return value

    p = spawn(sim, proc())
    sim.schedule(7.0, fut.resolve, "payload")
    sim.run()
    assert p.result == "payload"
    assert sim.now == 7.0


def test_wait_on_already_resolved_future():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(99)

    def proc():
        value = yield fut
        return value

    p = spawn(sim, proc())
    sim.run()
    assert p.result == 99


def test_double_resolve_raises():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(1)
    with pytest.raises(RuntimeError):
        fut.resolve(2)


def test_allof_collects_values_in_order():
    sim = Simulator()
    futs = [Future(sim) for _ in range(3)]

    def proc():
        values = yield AllOf(futs)
        return values

    p = spawn(sim, proc())
    # Resolve out of order; values must come back in declaration order.
    sim.schedule(3.0, futs[2].resolve, "c")
    sim.schedule(1.0, futs[0].resolve, "a")
    sim.schedule(2.0, futs[1].resolve, "b")
    sim.run()
    assert p.result == ["a", "b", "c"]
    assert sim.now == 3.0


def test_allof_empty_resolves_immediately():
    sim = Simulator()

    def proc():
        values = yield AllOf([])
        return values

    p = spawn(sim, proc())
    sim.run()
    assert p.result == []


def test_process_waits_on_subprocess():
    sim = Simulator()

    def child():
        yield 20.0
        return "done"

    def parent():
        c = spawn(sim, child())
        result = yield c
        return result

    p = spawn(sim, parent())
    sim.run()
    assert p.result == "done"
    assert sim.now == 20.0


def test_yield_from_subgenerator():
    sim = Simulator()

    def inner():
        yield 5.0
        return 42

    def outer():
        value = yield from inner()
        yield 5.0
        return value + 1

    p = spawn(sim, outer())
    sim.run()
    assert p.result == 43
    assert sim.now == 10.0


def test_unsupported_yield_type_raises():
    sim = Simulator()

    def proc():
        yield "not-a-waitable"

    spawn(sim, proc())
    with pytest.raises(TypeError):
        sim.run()


def test_exception_in_process_propagates():
    sim = Simulator()

    def proc():
        yield 1.0
        raise ValueError("boom")

    spawn(sim, proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_done_future_multiple_waiters():
    sim = Simulator()
    fut = Future(sim)
    seen = []

    def waiter(label):
        value = yield fut
        seen.append((label, value))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.schedule(4.0, fut.resolve, 7)
    sim.run()
    assert sorted(seen) == [("a", 7), ("b", 7)]


# --- AllOf -----------------------------------------------------------------


def test_allof_accepts_processes_and_futures():
    sim = Simulator()

    def child(t, v):
        yield t
        return v

    fut = Future(sim)
    sim.schedule(5.0, fut.resolve, "f")

    def parent():
        kids = [spawn(sim, child(3.0, "x")), spawn(sim, child(1.0, "y"))]
        values = yield AllOf([kids[0], fut, kids[1]])
        return values, sim.now

    p = spawn(sim, parent())
    sim.run()
    assert p.result == (["x", "f", "y"], 5.0)


@pytest.mark.parametrize(
    "bad", [1.0, "x", None, AllOf([])], ids=["float", "str", "none", "allof"]
)
def test_allof_rejects_other_members_at_construction(bad):
    with pytest.raises(TypeError, match="futures and processes"):
        AllOf([Future(Simulator()), bad])


def test_allof_duplicate_future_counts_twice():
    sim = Simulator()
    a, b = Future(sim), Future(sim)

    def proc():
        values = yield AllOf([a, b, a])
        return values, sim.now

    p = spawn(sim, proc())
    sim.schedule(2.0, a.resolve, "a")
    sim.schedule(4.0, b.resolve, "b")
    sim.run()
    assert p.result == (["a", "b", "a"], 4.0)


def test_allof_with_already_resolved_futures():
    sim = Simulator()
    done, pending = Future(sim), Future(sim)
    done.resolve("early")

    def proc():
        first = yield AllOf([done, done])
        second = yield AllOf([pending, done])
        return first, second, sim.now

    p = spawn(sim, proc())
    sim.schedule(6.0, pending.resolve, "late")
    sim.run()
    assert p.result == (["early", "early"], ["late", "early"], 6.0)


def test_allof_posts_only_the_final_wake():
    sim = Simulator()
    futs = [Future(sim) for _ in range(3)]

    def proc():
        yield AllOf(futs)

    spawn(sim, proc())
    for i, f in enumerate(futs):
        sim.schedule(float(i + 1), f.resolve, i)
    sim.run()
    # Process start and three resolves: no per-future event, and the
    # one resume runs within the last resolve.
    assert sim.events_executed == 4


# --- the next-event slot ------------------------------------------------------


def _resume_log(sim, fut, log):
    def proc():
        value = yield fut
        log.append(("resumed", value))

    spawn(sim, proc())


def test_lone_waiter_runs_right_after_the_resolving_event():
    sim = Simulator()
    fut, log = Future(sim), []
    _resume_log(sim, fut, log)
    sim.schedule(5.0, fut.resolve, 1)
    sim.run()
    assert log == [("resumed", 1)]
    # Process start and the resolve; the resume ran within the resolve.
    assert sim.events_executed == 2
    assert sim.pending_events == 0


def test_waiter_sees_what_the_event_did_after_resolving():
    sim = Simulator()
    fut, log, state = Future(sim), [], []

    def proc():
        yield fut
        log.append(list(state))

    spawn(sim, proc())

    def resolve_then_mutate():
        fut.resolve(None)
        state.append("after")
        sim.post(0.0, log.append, "posted after")

    sim.post(5.0, resolve_then_mutate)
    sim.run()
    assert log == [["after"], "posted after"]


def test_wake_queues_behind_an_earlier_same_time_event():
    sim = Simulator()
    fut, log = Future(sim), []
    _resume_log(sim, fut, log)
    sim.schedule(5.0, fut.resolve, 1)
    sim.schedule(5.0, log.append, "queued")
    sim.run()
    assert log == ["queued", ("resumed", 1)]
    assert sim.events_executed == 4


def test_wake_runs_ahead_of_a_low_priority_event():
    sim = Simulator()
    fut, log = Future(sim), []
    _resume_log(sim, fut, log)
    sim.schedule(5.0, fut.resolve, 1)
    sim.schedule(5.0, log.append, "low", priority=PRIORITY_LOW)
    sim.run()
    assert log == [("resumed", 1), "low"]
    assert sim.events_executed == 3


def test_wake_outside_the_event_loop_is_queued():
    sim = Simulator()
    fut, log = Future(sim), []
    _resume_log(sim, fut, log)
    sim.run()
    fut.resolve(1)
    assert log == [] and sim.pending_events == 1
    sim.run()
    assert log == [("resumed", 1)] and sim.pending_events == 0


def test_one_resolve_wakes_every_waiter_in_registration_order():
    sim = Simulator()
    fut, log = Future(sim), []

    def proc(tag):
        value = yield fut
        log.append((tag, value))

    for tag in "abc":
        spawn(sim, proc(tag))
    sim.run()
    sim.schedule(1.0, fut.resolve, 7)
    sim.run()
    assert log == [("a", 7), ("b", 7), ("c", 7)]
    # Three starts, the resolve and two wakes; "a" ran from the slot.
    assert sim.events_executed == 3 + 1 + 2


def test_step_counts_slot_work_within_the_waking_event():
    sim = Simulator()
    fut, log = Future(sim), []
    _resume_log(sim, fut, log)
    sim.step()  # process start: now waiting on fut
    sim.schedule(5.0, fut.resolve, 1)
    assert sim.step() is True
    assert log == [("resumed", 1)]
    assert sim.step() is False


def test_bounded_run_requeues_a_slot_entry_it_stops_at():
    sim = Simulator()
    log = []
    sim.post(1.0, lambda: (sim.post(0.0, log.append, "first"), sim.wake(log.append, "woken")))
    sim.run(max_events=1)
    assert log == [] and sim.pending_events == 2
    sim.run()
    assert log == ["first", "woken"]


def test_wake_chains_run_within_one_event():
    sim = Simulator()
    n = 200
    futs = [Future(sim) for _ in range(n)]

    def relay(i):
        yield futs[i]
        if i + 1 < n:
            futs[i + 1].resolve(i + 1)

    def last():
        value = yield futs[-1]
        return value, sim.now

    procs = [spawn(sim, relay(i)) for i in range(n - 1)]
    p = spawn(sim, last())
    sim.run()
    started = sim.events_executed
    sim.schedule(3.0, futs[0].resolve, 0)
    sim.run()
    assert all(q.finished for q in procs) and p.result == (n - 1, 3.0)
    assert sim.events_executed == started + 1
    assert sim.pending_events == 0
