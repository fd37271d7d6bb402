"""Scheduler conformance: the optimized engine vs the reference heap.

Identical programs run on :class:`repro.sim.Simulator` and on
:class:`tests.helpers.ReferenceSimulator` (the pre-optimization engine
kept verbatim as an oracle) and must produce identical execution logs,
timestamps, tie-breaking, counters and error behaviour — whether the
heap is drained by ``run()``, in bounded windows, or stepped.  The
reference has no fire-and-forget API; programs reach it through
:func:`_post`, which falls back to the equivalent ``schedule()`` call
there.
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError

from ..helpers import ReferenceSimulator

SEED = 0xFACADE


def _implementations():
    return [
        ("engine", lambda: Simulator(seed=SEED)),
        ("reference", lambda: ReferenceSimulator(seed=SEED)),
    ]


def _post(sim, delay, fn, *args):
    if isinstance(sim, ReferenceSimulator):
        sim.schedule(delay, fn, *args)
    else:
        sim.post(delay, fn, *args)


def _conform(program, drive=None, **run_kwargs):
    """Run *program(sim, log)* on all implementations; logs must agree.

    ``drive(sim, log)`` replaces the single ``sim.run(**run_kwargs)``
    call and returns whatever should be compared (e.g. run ends).
    """
    outcomes = {}
    for name, factory in _implementations():
        sim = factory()
        log: list = []
        program(sim, log)
        end = drive(sim, log) if drive is not None else sim.run(**run_kwargs)
        outcomes[name] = (log, end, sim.now, sim.events_executed, sim.pending_events)
    ref = outcomes.pop("reference")
    for name, got in outcomes.items():
        assert got == ref, f"{name} diverged from reference"
    return ref


def test_equal_time_ties_run_in_priority_then_insertion_order():
    def program(sim, log):
        sim.schedule(5.0, log.append, "n1")
        sim.schedule(5.0, log.append, "high", priority=-10)
        sim.schedule(5.0, log.append, "n2")
        sim.schedule(5.0, log.append, "low", priority=10)
        sim.schedule(2.0, log.append, "early")

    (log, *_rest) = _conform(program)
    assert log == ["early", "high", "n1", "n2", "low"]


def test_cancel_before_due_time_suppresses_execution():
    def program(sim, log):
        ev = sim.schedule(3.0, log.append, "dead")
        sim.schedule(1.0, log.append, "live")
        ev.cancel()

    (log, _end, _now, executed, pending) = _conform(program)
    assert log == ["live"]
    assert executed == 1
    assert pending == 0


def test_cancel_from_inside_an_earlier_event():
    def program(sim, log):
        ev = sim.schedule(5.0, log.append, "victim")
        sim.schedule(2.0, lambda: (log.append("killer"), ev.cancel()))

    (log, *_rest) = _conform(program)
    assert log == ["killer"]


def test_cancel_after_execution_is_a_noop():
    def program(sim, log):
        holder = {}

        def fire():
            log.append("fired")

        holder["ev"] = sim.schedule(1.0, fire)
        sim.schedule(2.0, lambda: holder["ev"].cancel())
        sim.schedule(3.0, log.append, "late")

    (log, _end, _now, executed, pending) = _conform(program)
    assert log == ["fired", "late"]
    assert pending == 0


def test_double_cancel_counts_once():
    def program(sim, log):
        ev = sim.schedule(9.0, log.append, "never")
        ev.cancel()
        ev.cancel()
        sim.schedule(1.0, log.append, "ok")

    (log, _end, _now, _executed, pending) = _conform(program)
    assert log == ["ok"]
    assert pending == 0


def test_until_window_advances_now_to_exactly_until():
    def program(sim, log):
        for t in (1.0, 4.0, 9.0):
            sim.schedule(t, log.append, t)

    (log, end, now, executed, pending) = _conform(program, until=5.0)
    assert log == [1.0, 4.0]
    assert end == now == 5.0
    assert executed == 2
    assert pending == 1


def test_max_events_stops_after_n():
    def program(sim, log):
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, log.append, t)

    (log, _end, now, executed, pending) = _conform(program, max_events=2)
    assert log == [1.0, 2.0]
    assert now == 2.0
    assert executed == 2
    assert pending == 2


def test_budgets_stop_at_a_same_time_run_then_run_resumes():
    """Budgets (2, 0, 1) stop among events sharing t=5, a zero budget
    runs nothing, a cancel after it still counts, and a delay-0 post made
    at t=5 runs after every event queued for t=5 before it."""
    handles = {}

    def program(sim, log):
        def first():
            log.append("first")
            _post(sim, 0.0, log.append, "injected")

        sim.schedule(5.0, first)
        handles[sim] = sim.schedule(5.0, log.append, "second")
        _post(sim, 5.0, log.append, "third")
        _post(sim, 1.0, log.append, "early")

    def drive(sim, log):
        ends = []
        for budget in (2, 0):
            ends.append((sim.run(max_events=budget), list(log), sim.pending_events))
        handles[sim].cancel()
        ends.append((sim.run(max_events=1), list(log), sim.pending_events))
        ends.append(sim.run())
        return ends

    (log, ends, now, executed, pending) = _conform(program, drive=drive)
    assert log == ["early", "first", "third", "injected"]
    assert ends == [
        (5.0, ["early", "first"], 3),
        (5.0, ["early", "first"], 3),
        (5.0, ["early", "first", "third"], 1),
        5.0,
    ]
    assert (now, executed, pending) == (5.0, 4, 0)


def test_reentrant_run_raises():
    for name, factory in _implementations():
        sim = factory()
        errors: list = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                errors.append(name)

        sim.schedule(1.0, reenter)
        sim.run()
        assert errors == [name]


def test_negative_delay_raises():
    for _name, factory in _implementations():
        sim = factory()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_raises():
    for _name, factory in _implementations():
        sim = factory()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_from_callbacks_interleave_identically():
    def program(sim, log):
        def parent(tag, depth):
            log.append((sim.now, tag))
            if depth:
                sim.schedule(0.0, parent, f"{tag}.z", depth - 1)
                sim.schedule(1.0, parent, f"{tag}.o", depth - 1)

        sim.schedule(0.0, parent, "r", 3)

    _conform(program)


def test_seeded_random_program_conforms():
    """A randomized schedule/cancel storm stays event-for-event equal."""

    def program(sim, log):
        rng = sim.rng.stream("conform")
        pending: list = []

        def fire(tag):
            log.append((sim.now, tag))
            k = int(rng.integers(0, 4))
            d = float(int(rng.integers(0, 3)))
            if k == 0 and len(log) < 300:
                sim.schedule(d, fire, f"{tag}x")
            elif k == 1 and len(log) < 300:
                pending.append(sim.schedule(d + 1.0, fire, f"{tag}y"))
            elif k == 2 and pending:
                pending.pop().cancel()

        for i in range(20):
            sim.schedule(float(i % 5), fire, f"s{i}")

    _conform(program)


# --- fire-and-forget posts vs their schedule() equivalents -----------------


def test_post_matches_schedule_semantics():
    """post() orders exactly like schedule()."""

    def program(sim, log):
        _post(sim, 2.0, log.append, "a")
        _post(sim, 1.0, log.append, "b")
        _post(sim, 2.0, log.append, "c")

    (log, *_rest) = _conform(program)
    assert log == ["b", "a", "c"]


# --- run windows -------------------------------------------------------------


def test_until_with_only_cancelled_events_beyond_leaves_now():
    def program(sim, log):
        _post(sim, 1.0, log.append, "live")
        sim.schedule(8.0, log.append, "dead").cancel()
        for tag in ("x", "y"):
            sim.schedule(9.0, log.append, tag).cancel()

    (log, end, now, executed, pending) = _conform(program, until=5.0)
    assert log == ["live"]
    assert end == now == 1.0
    assert (executed, pending) == (1, 0)


def test_until_equal_to_an_event_time_runs_that_event():
    def program(sim, log):
        _post(sim, 2.0, log.append, "a")
        _post(sim, 5.0, log.append, "b0")
        sim.schedule(5.0, log.append, "b1")
        sim.schedule(5.0, log.append, "c")
        _post(sim, 6.0, log.append, "late")

    (log, end, now, executed, pending) = _conform(program, until=5.0)
    assert log == ["a", "b0", "b1", "c"]
    assert end == now == 5.0
    assert (executed, pending) == (4, 1)


def test_cancel_of_the_event_a_window_stopped_at():
    handles = {}

    def program(sim, log):
        handles[sim] = sim.schedule(5.0, log.append, "dead")
        _post(sim, 6.0, log.append, "live")

    def drive(sim, log):
        first = sim.run(until=2.0)
        handles[sim].cancel()
        return first, sim.pending_events, sim.run()

    (log, ends, now, executed, pending) = _conform(program, drive=drive)
    assert log == ["live"]
    assert ends == (2.0, 1, 6.0)
    assert (now, executed, pending) == (6.0, 1, 0)
