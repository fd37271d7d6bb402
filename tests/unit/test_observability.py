"""Unit tests for the observability layer: registration at the source,
the span tracer, MetricsRegistry collection, and RunReport merge/render.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.nic.rvma import RvmaNicConfig
from repro.observability import CATALOG, MetricsRegistry, RunReport, SpanTracer, lookup
from repro.reliability import ReliabilityConfig
from repro.sim import Component, Simulator
from tests.helpers import run_gens


# --- registration at the source ------------------------------------------


def test_registering_an_undeclared_name_raises():
    sim = Simulator()
    with pytest.raises(KeyError, match="not declared"):
        sim.stats.counter("mystery7.widgets")
    with pytest.raises(KeyError, match="not declared"):
        sim.stats.counter("rvma0.bytes_placed")  # a flat per-component name
    with pytest.raises(KeyError, match="not declared"):
        Component(sim, "rvma0").stat("bytes_placed")


def test_registering_with_the_wrong_kind_raises():
    sim = Simulator()
    with pytest.raises(TypeError, match="is a counter"):
        sim.stats.summary("nic.rvma.bytes_placed")
    with pytest.raises(TypeError, match="is a summary"):
        sim.stats.counter("transport.tx_attempts", "rvma0")
    with pytest.raises(TypeError, match="is a counter"):
        sim.stats.histogram("faults.drops_link_flap")


def test_registration_accepts_catalog_names_and_patterns():
    sim = Simulator()
    sim.stats.counter("faults.drops_link_flap").add()  # via faults.drops_*
    sim.stats.counter("service.kv.tenant.shed.t3").add(2)
    sim.stats.summary("transport.tx_attempts").add(1.0)
    sim.stats.histogram("nic.rvma.epoch_bytes", instance="rvma0").add(8.0)
    reg = MetricsRegistry.collect(sim)
    assert reg.counters == {"faults.drops_link_flap": 1, "service.kv.tenant.shed.t3": 2}
    assert reg.summaries["transport.tx_attempts"].n == 1
    assert reg.histograms["nic.rvma.epoch_bytes"].count == 1


def test_instances_sum_under_one_name_and_stay_apart():
    sim = Simulator()
    Component(sim, "rvma0").stat("nic.rvma.bytes_placed").add(100)
    Component(sim, "rvma1").stat("nic.rvma.bytes_placed").add(50)
    assert MetricsRegistry.collect(sim).counters == {"nic.rvma.bytes_placed": 150}
    assert sim.stats.instances("nic.rvma.bytes_placed") == {"rvma0": 100, "rvma1": 50}


def test_nic_shared_counters_use_the_concrete_group():
    for nic_type in ("rvma", "rdma"):
        cl = Cluster.build(n_nodes=2, topology="star", nic_type=nic_type)
        nic = cl.node(1).nic
        nic.crash()
        nic._on_delivery(None)  # dropped: the NIC is down
        nic.restart()
        stats = cl.sim.stats
        assert stats.instances(f"nic.{nic_type}.rx_dropped_failed") == {nic.name: 1}
        assert stats.instances("recovery.crashes") == {nic.name: 1}
        assert stats.instances("recovery.restarts") == {nic.name: 1}


def test_transport_reports_tx_once():
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", seed=7,
        nic_config=RvmaNicConfig(reliability=ReliabilityConfig()),
    )
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def rx():
        win = yield from api1.init_window(0xAB, epoch_threshold=192)
        yield from api1.post_buffer(win, size=192)
        yield from api1.wait_completion(win)

    def tx():
        for _ in range(3):
            op = yield from api0.put(1, 0xAB, data=b"x" * 64)
            yield op.local_done

    run_gens(cl.sim, rx(), tx())
    stats = cl.sim.stats
    assert stats.instances("transport.tx") == {"rvma0": 3}
    assert MetricsRegistry.collect(cl).counters["transport.tx"] == 3
    assert [n for (n, _), _ in stats.counter_items() if n.startswith("reliability.")] == []


def test_lookup_honors_patterns():
    assert lookup("faults.drops_random") is not None
    assert lookup("faults.drops_link_flap") is not None  # via faults.drops_*
    assert lookup("no.such.metric") is None
    for name, spec in CATALOG.items():
        assert spec.unit and spec.description, name


# --- SpanTracer ----------------------------------------------------------


def _tracer(t=[0.0]):
    return SpanTracer(clock=lambda: t[0], wall_clock=lambda: 0.0), t


def test_spans_off_by_default():
    spans, _ = _tracer()
    assert not spans.active
    assert spans.begin("nic", "x") is None
    spans.end(None)  # must be a no-op, not a crash
    assert len(spans) == 0


def test_span_category_filtering():
    spans, t = _tracer([0.0])
    spans.enable("transport")
    assert spans.wants("transport") and not spans.wants("nic")
    assert spans.begin("nic", "x") is None
    sp = spans.begin("transport", "send", seq=1)
    t[0] = 10.0
    spans.end(sp, outcome="acked")
    assert len(spans) == 1
    assert sp.sim_time == 10.0
    assert sp.fields == {"seq": 1, "outcome": "acked"}
    assert spans.categories() == ["transport"]


def test_span_enable_all_and_context_parenting():
    spans, t = _tracer([0.0])
    spans.enable()
    with spans.span("run", "outer") as outer:
        t[0] = 5.0
        with spans.span("api", "inner") as inner:
            t[0] = 7.0
    assert inner.parent_id == outer.id
    assert outer.sim_time == 7.0 and inner.sim_time == 2.0
    assert spans.spans("api") == [inner]


def test_span_double_end_is_idempotent():
    spans, t = _tracer([0.0])
    spans.enable()
    sp = spans.begin("nic", "fill")
    t[0] = 3.0
    spans.end(sp)
    t[0] = 9.0
    spans.end(sp)  # already closed: must not move the end time
    assert sp.end == 3.0


def test_span_top_n_and_summary():
    spans, t = _tracer([0.0])
    spans.enable()
    durations = [5.0, 1.0, 9.0]
    for i, d in enumerate(durations):
        t[0] = 0.0
        sp = spans.begin("cat", f"s{i}")
        t[0] = d
        spans.end(sp)
    open_sp = spans.begin("cat", "open")  # never closed
    top = spans.top_by_sim_time(2)
    assert [s.name for s in top] == ["s2", "s0"]
    roll = spans.summary()["cat"]
    assert roll["count"] == 4 and roll["open"] == 1
    assert roll["sim_ns"] == sum(durations)
    assert open_sp.open


def test_span_chrome_trace_shapes():
    spans, t = _tracer([0.0])
    spans.enable()
    sp = spans.begin("cat", "closed")
    t[0] = 2.0
    spans.end(sp)
    spans.begin("cat", "open")
    events = spans.to_chrome_trace()
    assert [e["ph"] for e in events] == ["X", "i"]
    assert events[0]["dur"] == 2.0 / 1000.0


# --- MetricsRegistry.collect --------------------------------------------


def test_collect_federates_and_dedups():
    sim = Simulator()
    # two RVMA NICs' worth of per-instance counters
    sim.stats.counter("nic.rvma.bytes_placed", "rvma0").add(100)
    sim.stats.counter("nic.rvma.bytes_placed", "rvma1").add(50)
    sim.stats.counter("transport.tx", "rvma0").add(7)
    sim.stats.counter("fabric.messages_sent", "fabric").add(3)
    # cluster-wide summary
    sim.stats.summary("fabric.msg_latency_ns").add(10.0)
    sim.stats.summary("fabric.msg_latency_ns").add(30.0)
    reg = MetricsRegistry.collect(sim)
    assert reg.counters["nic.rvma.bytes_placed"] == 150
    assert reg.counters["transport.tx"] == 7
    assert reg.counters["fabric.messages_sent"] == 3
    assert reg.summaries["fabric.msg_latency_ns"].n == 2
    assert reg.groups() == ["fabric", "nic", "transport"]
    assert "nic.rvma.bytes_placed" in reg.flat("nic")
    assert "fabric.messages_sent" not in reg.flat("nic")
    assert reg.snapshot()["transport"]["transport.tx"] == 7
    assert reg.undocumented() == []


def test_collect_merges_histograms_across_components():
    sim = Simulator()
    sim.stats.histogram("nic.rvma.epoch_bytes", 0.0, 100.0, 10, instance="rvma0").add(5.0)
    sim.stats.histogram("nic.rvma.epoch_bytes", 0.0, 100.0, 10, instance="rvma1").add(15.0)
    reg = MetricsRegistry.collect(sim)
    h = reg.histograms["nic.rvma.epoch_bytes"]
    assert h.count == 2 and h.bins[0] == 1 and h.bins[1] == 1


def test_collect_accepts_cluster_like_target():
    sim = Simulator()
    sim.stats.counter("nic.rvma.tx_messages", "rvma0").add(2)

    class ClusterLike:
        pass

    target = ClusterLike()
    target.sim = sim
    reg = MetricsRegistry.collect(target)
    assert reg.counters["nic.rvma.tx_messages"] == 2


# --- RunReport -----------------------------------------------------------


def _report_from(sim, meta=None):
    return RunReport.collect(sim, meta=meta)


def test_run_report_round_trip(tmp_path):
    sim = Simulator()
    sim.stats.counter("nic.rvma.bytes_placed", "rvma0").add(64)
    sim.spans.enable()
    sp = sim.spans.begin("run", "unit")
    sim.schedule(10.0, sim.spans.end, sp)
    sim.run()
    rep = _report_from(sim, meta={"seed": 1})
    path = tmp_path / "report.json"
    rep.save(str(path))
    data = json.loads(path.read_text())
    assert data["meta"]["seed"] == 1
    assert data["metrics"]["nic"]["nic.rvma.bytes_placed"] == 64
    assert "run" in data["spans"]["categories"]
    assert data["spans"]["hottest_by_sim_time"][0]["name"] == "unit"
    md = rep.to_markdown()
    assert "nic.rvma.bytes_placed" in md and "| run |" in md.replace("`run`", "| run |")


def test_run_report_merge_combines_counters_and_summaries():
    reports = []
    for placed, lat in ((100, 10.0), (50, 30.0)):
        sim = Simulator()
        sim.stats.counter("nic.rvma.bytes_placed", "rvma0").add(placed)
        sim.stats.summary("fabric.msg_latency_ns").add(lat)
        reports.append(_report_from(sim))
    merged = RunReport.merge(reports, meta={"harness": "test"})
    nic = merged.metrics["nic"]["nic.rvma.bytes_placed"]
    assert nic == 150
    lat = merged.metrics["fabric"]["fabric.msg_latency_ns"]
    assert lat["n"] == 2 and lat["mean"] == 20.0
    assert lat["min"] == 10.0 and lat["max"] == 30.0
    assert merged.meta["merged_runs"] == 2
    assert merged.undocumented() == []


def test_run_report_merge_single_passthrough():
    sim = Simulator()
    sim.stats.counter("nic.rvma.bytes_placed", "rvma0").add(5)
    merged = RunReport.merge([_report_from(sim)])
    assert merged.metrics["nic"]["nic.rvma.bytes_placed"] == 5
