"""Scheduler conformance: the optimized engine vs the reference heap.

Identical programs run on :class:`repro.sim.Simulator` and on
:class:`tests.helpers.ReferenceSimulator` (the pre-optimization engine
kept verbatim as an oracle) and must produce identical execution logs,
timestamps, tie-breaking, counters and error behaviour — whether the
heap is drained by ``run()``, in bounded windows, or stepped.  The
reference has no fire-and-forget or batch APIs; programs reach them
through :func:`_post` / :func:`_post_batch`, which fall back to the
equivalent ``schedule()`` calls there.
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


def _post_batch(sim, delay, calls):
    if isinstance(sim, ReferenceSimulator):
        for fn, args in calls:
            sim.schedule(delay, fn, *args)
    else:
        sim.post_batch(delay, calls)


def _schedule_batch(sim, delay, calls):
    if isinstance(sim, ReferenceSimulator):
        return [sim.schedule(delay, fn, *args) for fn, args in calls]
    return sim.schedule_batch(delay, calls)


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


def test_kwargs_are_delivered():
    def program(sim, log):
        sim.schedule(1.0, lambda **kw: log.append(kw), a=1, b="x")

    (log, *_rest) = _conform(program)
    assert log == [{"a": 1, "b": "x"}]


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


# --- fire-and-forget and batch APIs vs their schedule() equivalents --------


def test_post_matches_schedule_semantics():
    """post() orders exactly like schedule()."""

    def program(sim, log):
        _post(sim, 2.0, log.append, "a")
        _post(sim, 1.0, log.append, "b")
        _post(sim, 2.0, log.append, "c")

    (log, *_rest) = _conform(program)
    assert log == ["b", "a", "c"]


def test_post_batch_matches_individual_schedules():
    def program(sim, log):
        _post_batch(sim, 3.0, [(log.append, ("b0",)), (log.append, ("b1",)), (log.append, ("b2",))])
        _post(sim, 3.0, log.append, "single")  # later seq: runs after the batch
        _post(sim, 1.0, log.append, "early")

    (log, *_rest) = _conform(program)
    assert log == ["early", "b0", "b1", "b2", "single"]


def _batch_with_injection(sim, log):
    """A bucket whose first member posts a delay-0 event at its own time."""

    def first():
        log.append("first")
        _post(sim, 0.0, log.append, "injected")

    _post_batch(sim, 5.0, [(first, ()), (log.append, ("second",)), (log.append, ("third",))])


def test_bucket_members_yield_to_interleaved_delay_zero_posts():
    """A batch member that posts a delay-0 event at the same timestamp
    must NOT let later batch members jump ahead of it (seq order)."""
    (log, *_rest) = _conform(_batch_with_injection)
    assert log == ["first", "second", "third", "injected"]


def test_schedule_batch_cancellation_per_member():
    def program(sim, log):
        evs = _schedule_batch(sim, 4.0, [(log.append, (i,)) for i in range(5)])
        evs[1].cancel()
        evs[3].cancel()

    (log, _end, _now, _executed, pending) = _conform(program)
    assert log == [0, 2, 4]
    assert pending == 0


# --- bounded runs and step() share the drain loop --------------------------


def test_max_events_stops_inside_a_bucket_then_run_resumes():
    def program(sim, log):
        _batch_with_injection(sim, log)
        _post_batch(sim, 5.0, [(log.append, ("b0",)), (log.append, ("b1",))])
        _post(sim, 1.0, log.append, "early")

    def drive(sim, log):
        ends = []
        for budget in (2, 0, 1):
            ends.append((sim.run(max_events=budget), list(log)))
        ends.append(sim.run())
        return ends

    (log, ends, now, executed, pending) = _conform(program, drive=drive)
    assert log == ["early", "first", "second", "third", "b0", "b1", "injected"]
    assert ends == [
        (5.0, ["early", "first"]),
        (5.0, ["early", "first"]),
        (5.0, ["early", "first", "second"]),
        5.0,
    ]
    assert (now, executed, pending) == (5.0, 7, 0)


def test_until_with_only_cancelled_events_beyond_leaves_now():
    def program(sim, log):
        _post(sim, 1.0, log.append, "live")
        sim.schedule(8.0, log.append, "dead").cancel()
        for ev in _schedule_batch(sim, 9.0, [(log.append, ("x",)), (log.append, ("y",))]):
            ev.cancel()

    (log, end, now, executed, pending) = _conform(program, until=5.0)
    assert log == ["live"]
    assert end == now == 1.0
    assert (executed, pending) == (1, 0)


def test_until_equal_to_an_event_time_runs_that_event():
    def program(sim, log):
        _post(sim, 2.0, log.append, "a")
        _post_batch(sim, 5.0, [(log.append, ("b0",)), (log.append, ("b1",))])
        sim.schedule(5.0, log.append, "c")
        _post(sim, 6.0, log.append, "late")

    (log, end, now, executed, pending) = _conform(program, until=5.0)
    assert log == ["a", "b0", "b1", "c"]
    assert end == now == 5.0
    assert (executed, pending) == (4, 1)


def test_step_across_a_bucket_with_a_delay_zero_post():
    def drive(sim, _log):
        steps = []
        while sim.step():
            steps.append((sim.now, sim.events_executed, sim.pending_events))
        steps.append(sim.step())
        return steps

    (log, steps, *_rest) = _conform(_batch_with_injection, drive=drive)
    assert log == ["first", "second", "third", "injected"]
    assert steps == [(5.0, 1, 3), (5.0, 2, 2), (5.0, 3, 1), (5.0, 4, 0), False]
