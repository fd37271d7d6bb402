"""Edge-case audit: open-loop arrival accounting at trace boundaries.

Regression pins for the LoadGenerator/TraceReplayer boundary behaviors
the trace work audited:

* ``max_backlog < 1`` is a configuration error, not a silent
  drop-everything workload (the cap check runs before the append);
* a dropped open-loop arrival consumes only the ``.arrival`` RNG draw —
  no ``.op``/``.key`` draws — so the synthesized op stream depends on
  backlog depth (and hence service timing).  That coupling is *by
  design* (it keeps the arrival process honest) and is exactly why
  cross-variant comparisons replay recorded traces instead;
* the replayer dispatches first-row-at-now and zero-gap rows
  immediately (legal in traces, unreachable for the exponential
  sampler), and its backlog cap drops deterministically;
* an idle worker of either skips the polls that cannot find work but
  takes every row or arrival at the same instant, in the same order,
  as one that polls every ``worker_poll_ns``.
"""

from __future__ import annotations

import random

import pytest

from repro.services import LoadGenerator, WorkloadConfig
from repro.services.loadgen import LoadStats, idle_poll_delay
from repro.services.wire import STATUS_OK
from repro.sim import Simulator
from repro.workloads import Trace, TraceReplayer, TraceRow


class _Reply:
    def __init__(self, status=STATUS_OK, payload=b""):
        self.status = status
        self.payload = payload


class _EchoClient:
    """Resolves every batch instantly with OK replies."""

    def __init__(self, tenant_id=0):
        self.tenant_id = tenant_id
        self.batches = []

    def execute_batch(self, ops, t0=None, deadline_ns=None):
        self.batches.append(list(ops))
        yield 1.0
        return [_Reply(payload=b"v") for _ in ops]

    def scan(self, prefix):
        yield 1.0
        return [(prefix + b"1", b"x")]


class _StuckClient:
    """Accepts one batch and never replies — a wedged service."""

    def __init__(self, tenant_id=0):
        self.tenant_id = tenant_id

    def execute_batch(self, ops, t0=None, deadline_ns=None):
        while True:
            yield 1e9

    def scan(self, prefix):
        while True:
            yield 1e9


# -------------------------------------------------------------- config guards


def test_loadgen_rejects_nonpositive_backlog_cap():
    sim = Simulator(seed=1)
    cfg = WorkloadConfig(mode="open", max_backlog=0)
    with pytest.raises(ValueError):
        LoadGenerator(sim, [_EchoClient()], cfg)


def test_replayer_rejects_nonpositive_backlog_cap():
    sim = Simulator(seed=1)
    trace = _trace([(0, "get", "a")])
    with pytest.raises(ValueError):
        TraceReplayer(sim, [_EchoClient()], trace, max_backlog=0)
    with pytest.raises(ValueError):
        TraceReplayer(sim, [_EchoClient()], trace, batch=0)


# -------------------------------------------------------- drop-path RNG audit


def test_dropped_arrivals_consume_no_op_draws():
    # With a wedged client pool and a backlog cap of 1, the first
    # arrival is taken by the worker, the second fills the backlog, and
    # every later arrival is dropped at the cap.  Each drop must burn
    # only the arrival draw: the op-sequence counter equals the number
    # of arrivals that actually sampled an op.
    sim = Simulator(seed=7)
    cfg = WorkloadConfig(
        n_ops=12, mode="open", max_backlog=1, mean_interarrival_ns=2000.0
    )
    gen = LoadGenerator(sim, [_StuckClient()], cfg)
    from repro.sim import spawn

    spawn(sim, gen.run(), "load")
    sim.run(until=5_000_000.0)
    assert gen.stats.ops_issued == 12
    assert gen.stats.ops_dropped == 10
    assert gen._seq == gen.stats.ops_issued - gen.stats.ops_dropped
    assert sim.stats.counter("service.kv.client.backlog_dropped").value == 10


def test_open_loop_all_resolved_when_pool_keeps_up():
    sim = Simulator(seed=7)
    cfg = WorkloadConfig(n_ops=30, mode="open", mean_interarrival_ns=2000.0)
    client = _EchoClient()
    gen = LoadGenerator(sim, [client], cfg)
    from repro.sim import spawn

    spawn(sim, gen.run(), "load")
    sim.run(until=5_000_000.0)
    assert gen.stats.ops_dropped == 0
    assert gen.stats.all_resolved()
    assert gen._seq == 30


# ------------------------------------------------------------ replayer edges


def _trace(steps, client=5, tenant=0):
    rows = [
        TraceRow(
            timestamp_ns=ts, tenant=tenant, client=client, op=op, key=key,
            value_size=8 if op == "put" else 0,
        )
        for ts, op, key in steps
    ]
    return Trace.from_rows(rows, provenance={"seed": 0, "source": "unit"})


def _run_replayer(trace, client, **kw):
    from repro.sim import spawn

    sim = Simulator(seed=3)
    rep = TraceReplayer(sim, [client], trace, **kw)
    spawn(sim, rep.run(), "replay")
    sim.run(until=10_000_000.0)
    return sim, rep


def test_replayer_first_row_at_now_and_zero_gaps():
    # First row at t=0 (the current instant) and back-to-back zero-gap
    # rows must all dispatch — no off-by-one at either boundary.
    trace = _trace([
        (0, "put", "a"), (0, "get", "a"), (0, "get", "b"),
        (100, "get", "a"), (100, "delete", "a"),
    ])
    client = _EchoClient()
    sim, rep = _run_replayer(trace, client)
    assert rep.stats.ops_issued == 5
    assert rep.stats.ops_dropped == 0
    assert rep.stats.all_resolved()
    assert sorted(rep.outcomes) == [0, 1, 2, 3, 4]
    assert sim.stats.counter("workload.trace.rows_replayed").value == 5


def test_replayer_preserves_program_order_across_batches():
    steps = [(i * 10, "put" if i % 3 == 0 else "get", "k") for i in range(12)]
    trace = _trace(steps)
    client = _EchoClient()
    _sim, rep = _run_replayer(trace, client, batch=4)
    issued = [op for batch in client.batches for op in batch]
    from repro.services.wire import OP_GET, OP_PUT

    want = [OP_PUT if i % 3 == 0 else OP_GET for i in range(12)]
    assert [op for op, _k, _v in issued] == want


def test_replayer_scan_rows_stay_solo():
    trace = _trace([
        (0, "get", "a"), (0, "scan", "a"), (0, "get", "b"), (0, "get", "c"),
    ])
    client = _EchoClient()
    _sim, rep = _run_replayer(trace, client, batch=8)
    # The scan resolves via the scan path (status 0, joined payload),
    # never folded into an execute_batch pipeline.
    assert all(len(b) <= 2 for b in client.batches)
    assert rep.outcomes[1][0] == "scan"
    assert rep.stats.all_resolved()


def test_replayer_backlog_cap_drops_deterministically():
    trace = _trace([(0, "get", k) for k in ("a", "b", "c", "d", "e")])
    client = _StuckClient()
    sim, rep = _run_replayer(trace, client, max_backlog=2)
    # All five rows fire at t=0 before the worker runs: two queue, the
    # rest drop at the cap.  Drops resolve the rows (never replayed).
    assert rep.stats.ops_issued == 5
    assert rep.stats.ops_dropped == 3
    assert sim.stats.counter("workload.trace.rows_dropped").value == 3


def test_loadstats_all_resolved_accounting():
    stats = LoadStats()
    stats.ops_issued = 3
    stats.ops_dropped = 1
    assert not stats.all_resolved()
    stats.note(1, STATUS_OK)
    stats.note(1, STATUS_OK)
    assert stats.all_resolved()


# ------------------------------------------------------------ idle polling


def test_idle_poll_delay_lands_on_the_last_skippable_tick():
    rng = random.Random(11)
    trials = last = 0
    for _ in range(3000):
        now = rng.choice([0.0, rng.uniform(0.0, 1e4), rng.uniform(1e6, 1e9)])
        poll = rng.choice([500.0, 333.3, 0.7, rng.uniform(1.0, 1e3)])
        work_at = now + rng.uniform(-2 * poll, 40 * poll)
        ticks = [now + poll]
        while ticks[-1] < work_at - 1.0:
            ticks.append(ticks[-1] + poll)
        # The poll ticks before work_at - 1, or the next one if none is.
        skippable = ticks[:-1] or ticks
        landing = now + idle_poll_delay(now, poll, work_at)
        assert landing in skippable  # on the grid, never past the last
        trials += len(skippable) > 1
        last += len(skippable) > 1 and landing == skippable[-1]
    # Rounding leaves an occasional tick out of reach; the rest land on
    # the last skippable one.
    assert trials > 2000 and last > 0.9 * trials


class _TimedClient(_EchoClient):
    """An echo client that logs when each batch reaches it."""

    def __init__(self, sim, log, name):
        super().__init__()
        self.sim, self.log, self.name = sim, log, name

    def execute_batch(self, ops, t0=None, deadline_ns=None):
        self.log.append((self.sim.now, self.name, list(ops)))
        return (yield from super().execute_batch(ops, t0, deadline_ns))


def _idle_runs(monkeypatch, module, drive):
    """*drive* (sim, log) run with idle polls skipped, then with every
    poll kept; returns both (log, events) pairs."""
    runs = []
    for skip in (True, False):
        if not skip:
            monkeypatch.setattr(module, "idle_poll_delay", lambda now, poll, at: poll)
        sim = Simulator(seed=5)
        log = []
        drive(sim, log)
        sim.run(until=50_000_000.0)
        runs.append((log, sim.events_executed))
    return runs


def test_idle_replay_workers_take_rows_when_polling_workers_do(monkeypatch):
    import repro.workloads.replayer as replayer
    from repro.sim import spawn

    rows = [
        TraceRow(
            timestamp_ns=ts, tenant=0, client=tc, op="get", key=f"k{i}", value_size=0
        )
        for i, (ts, tc) in enumerate([
            (0.0, 5), (1_250.3, 6), (1_250.3, 5), (9_999.9, 5), (10_000.4, 6),
            (10_501.0, 6), (47_313.7, 5), (47_314.0, 5), (120_000.0, 6),
        ])
    ]
    trace = Trace.from_rows(rows, provenance={"seed": 0, "source": "unit"})

    def drive(sim, log):
        pool = [_TimedClient(sim, log, "a"), _TimedClient(sim, log, "b")]
        spawn(sim, TraceReplayer(sim, pool, trace).run(), "replay")

    (skipped, skipped_events), (polled, polled_events) = _idle_runs(
        monkeypatch, replayer, drive
    )
    assert len(skipped) >= 7 and skipped == polled
    assert skipped_events < polled_events


def test_idle_open_loop_workers_take_arrivals_when_polling_workers_do(monkeypatch):
    import repro.services.loadgen as loadgen
    from repro.sim import spawn

    cfg = WorkloadConfig(n_ops=40, mode="open", mean_interarrival_ns=3_000.0)

    def drive(sim, log):
        pool = [_TimedClient(sim, log, "a"), _TimedClient(sim, log, "b")]
        spawn(sim, LoadGenerator(sim, pool, cfg).run(), "load")

    (skipped, skipped_events), (polled, polled_events) = _idle_runs(
        monkeypatch, loadgen, drive
    )
    assert len(skipped) == 40 and skipped == polled
    assert skipped_events < polled_events
