"""Property tests: the record→replay contract and the transform algebra.

Three families of invariants, for *any* drawn workload shape:

* **record→replay determinism** — a trace recorded from a live run
  replays to byte-identical op-outcome streams and wall-scrubbed
  RunReports on every replay (same trace + same seed ⇒ same
  everything the client can observe);
* **backend invariance of the offered frames** — replaying a trace's
  op stream as raw request frames through the rvma / verbs / ucx
  protocol stacks delivers byte-identical streams and counts: the
  offered load really is protocol-independent;
* **transform laws** — ``time_scale(1.0)`` is an identity on the
  trace_id, and transform composition is associative on trace_ids
  (transforms are pure functions of the row stream).
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.services import WorkloadConfig
from repro.workloads import (
    Trace,
    TraceRow,
    amplify_bursts,
    compose,
    diurnal_ramp,
    inject_flash_crowd,
    tenant_remap,
    time_scale,
)


def _record(seed: int, n_ops: int, mode: str) -> Trace:
    from repro.experiments.trace_replay import record_trace

    trace, _stats = record_trace(
        seed=seed,
        workload=WorkloadConfig(
            n_ops=n_ops, n_keys=16, value_bytes=32, zipf_s=0.9,
            mode=mode, mean_interarrival_ns=3000.0, rng_stream="kv-trace-prop",
        ),
        client_tenants=(0, 0),
    )
    return trace


# -------------------------------------------------------- record → replay


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=50),
    n_ops=st.integers(min_value=12, max_value=40),
    mode=st.sampled_from(["open", "closed"]),
)
def test_record_replay_deterministic(seed, n_ops, mode):
    from repro.experiments.trace_replay import replay_trace

    trace = _record(seed, n_ops, mode)
    digests = []
    reports = []
    for _ in range(2):
        cell = replay_trace(trace, seed=seed, observe=True)
        assert cell.invariants_ok, (cell.error, cell.safety_failures)
        digests.append(cell.outcome_digest)
        reports.append(json.dumps(cell.report, sort_keys=True))
    # Same trace + same seed ⇒ byte-identical outcomes and scrubbed
    # reports.
    assert len(set(digests)) == 1
    assert len(set(reports)) == 1


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=1, max_value=50))
def test_replay_frames_identical_across_backends(seed):
    from repro.experiments.trace_replay import replay_trace_frames

    trace = _record(seed, 24, "open")
    results = {}
    for backend in ("rvma", "verbs", "ucx"):
        delivered, counts, stalled = replay_trace_frames(trace, backend, seed=seed)
        assert not stalled, backend
        results[backend] = (delivered, counts)
    base = results["rvma"]
    assert results["verbs"] == base
    assert results["ucx"] == base


# ------------------------------------------------------------ transform laws


def _rows(data):
    # data: list of (gap, tenant&client pick, op pick, key pick, size)
    ops = ("get", "put", "delete", "scan")
    rows = []
    t = 0.0
    for gap, who, op_i, key_i, size in data:
        t += gap
        op = ops[op_i]
        rows.append(TraceRow(
            timestamp_ns=t, tenant=who % 3, client=100 + (who % 3),
            op=op, key=f"k{key_i}", value_size=size if op == "put" else 0,
        ))
    return rows


ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=64),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(data=ROWS)
def test_time_scale_unit_is_identity(data):
    trace = Trace.from_rows(_rows(data), provenance={"seed": 0})
    assert time_scale(1.0)(trace).trace_id == trace.trace_id


@settings(max_examples=100, deadline=None)
@given(
    data=ROWS,
    factor=st.sampled_from([0.5, 2.0, 3.0]),
    amp=st.integers(min_value=1, max_value=4),
)
def test_compose_associative_on_trace_ids(data, factor, amp):
    trace = Trace.from_rows(_rows(data), provenance={"seed": 0})
    f = time_scale(factor)
    g = amplify_bursts(amp)
    h = diurnal_ramp(period_ns=50_000.0, amplitude=0.5)
    left = compose(compose(f, g), h)(trace)
    right = compose(f, compose(g, h))(trace)
    flat = compose(f, g, h)(trace)
    assert left.trace_id == right.trace_id == flat.trace_id


@settings(max_examples=100, deadline=None)
@given(data=ROWS)
def test_transforms_preserve_validity(data):
    trace = Trace.from_rows(_rows(data), provenance={"seed": 0})
    out = compose(
        amplify_bursts(2),
        diurnal_ramp(period_ns=20_000.0, amplitude=0.3),
        tenant_remap({0: 5, 1: 6, 2: 7}),
        inject_flash_crowd(
            key="k0", start_ns=0.0, n_ops=5, spacing_ns=10.0,
            client=999, tenant=8,
        ),
    )(trace)
    out.validate()  # monotone timestamps, consistent client tenancy
    assert out.n_ops == trace.n_ops + 5
    # Pure functions of the rows: re-applying to a decoded copy of the
    # input yields the same identity.
    again = compose(
        amplify_bursts(2),
        diurnal_ramp(period_ns=20_000.0, amplitude=0.3),
        tenant_remap({0: 5, 1: 6, 2: 7}),
        inject_flash_crowd(
            key="k0", start_ns=0.0, n_ops=5, spacing_ns=10.0,
            client=999, tenant=8,
        ),
    )(Trace.decode(trace.to_jsonl()))
    assert again.trace_id == out.trace_id
