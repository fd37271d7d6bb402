"""Unit tests for RNG streams, stats, tracing, cables and units."""

import math

import numpy as np
import pytest

from repro.network import NetworkConfig, PacketFabric, make_topology
from repro.sim import RngRegistry, Simulator
from repro.observability import SpanTracer
from repro.units import (
    fmt_bytes,
    fmt_gbps,
    fmt_time,
    gbps,
    kib,
    mib,
    ns,
    seconds,
    serialization_ns,
    us,
)


# --- RNG --------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]


def test_rng_streams_independent_of_creation_order():
    r1 = RngRegistry(7)
    for _ in range(100):
        r1.random("a")
    x1 = [r1.random("b") for _ in range(4)]
    r2 = RngRegistry(7)
    x2 = [r2.random("b") for _ in range(4)]
    assert x1 == x2


def test_rng_choice_bounds():
    r = RngRegistry(1)
    assert r.choice("c", 1) == 0
    for _ in range(50):
        assert 0 <= r.choice("c", 5) < 5
    with pytest.raises(ValueError):
        r.choice("c", 0)


# --- stats -----------------------------------------------------------------


def test_counter_and_registry():
    sim = Simulator()
    sim.stats.counter("faults.crashes").add(3)
    sim.stats.counter("faults.crashes").add()
    sim.stats.counter("nic.rvma.bytes_placed", "rvma0").add(2)
    assert sim.stats.counter("faults.crashes").value == 4
    assert sim.stats.instances("faults.crashes") == {"": 4}
    assert sim.stats.instances("nic.rvma.bytes_placed") == {"rvma0": 2}


def test_summary_matches_numpy():
    sim = Simulator()
    data = [3.0, 1.5, 9.2, -4.0, 2.25, 8.0]
    s = sim.stats.summary("fabric.msg_latency_ns")
    for x in data:
        s.add(x)
    assert s.n == len(data)
    assert s.mean == pytest.approx(np.mean(data))
    assert s.stddev == pytest.approx(np.std(data, ddof=1))
    assert s.min == min(data) and s.max == max(data)
    assert s.total == pytest.approx(sum(data))


def test_summary_empty_is_safe():
    sim = Simulator()
    s = sim.stats.summary("transport.tx_attempts")
    assert s.mean == 0.0 and s.variance == 0.0


def test_histogram_buckets():
    sim = Simulator()
    h = sim.stats.histogram("nic.rvma.epoch_bytes", lo=0.0, hi=10.0, nbins=10)
    for x in [0.5, 1.5, 1.6, 9.99, -1.0, 10.0, 25.0]:
        h.add(x)
    assert h.bins[0] == 1 and h.bins[1] == 2 and h.bins[9] == 1
    assert h.underflow == 1 and h.overflow == 2
    assert h.count == 7
    assert len(h.bin_edges()) == 11


def test_histogram_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.stats.histogram("nic.rvma.epoch_bytes", lo=5.0, hi=5.0)


# --- trace ------------------------------------------------------------------


def test_tracer_disabled_records_nothing():
    t = SpanTracer(clock=lambda: 0.0)
    t.enable()
    kept = t.begin("nic0", "fill")
    t.disable()
    assert t.begin("nic0", "late") is None
    t.end(kept)  # a span opened while enabled still closes
    assert [s.name for s in t] == ["fill"] and not kept.open


def test_tracer_filtering():
    now = [0.0]
    t = SpanTracer(clock=lambda: now[0])
    t.enable()
    t.end(t.begin("nic0", "put sent", size=8))
    now[0] = 5.0
    t.end(t.begin("nic1", "put received"))
    t.end(t.begin("nic1", "completion written"))
    assert len(t.spans("nic1")) == 2
    assert len(t.spans("nic")) == 3  # a category filter is a prefix
    assert t.spans("nic0")[0].fields == {"size": 8}
    assert t.spans("nic1")[0].start == 5.0
    assert t.categories() == ["nic0", "nic1"]


# --- cables -----------------------------------------------------------------
# Two nodes on one switch: every cable direction is a FIFO channel that
# serializes at the link rate and is independent of the opposite one.


def _two_node_fabric():
    sim = Simulator()
    cfg = NetworkConfig(
        link_bw=2.0, injection_latency=10.0, switch_latency=5.0, crossbar_factor=2.0
    )
    fab = PacketFabric(sim, make_topology("star", 2), cfg)
    got = {0: [], 1: []}
    for node in (0, 1):
        fab.attach(node, lambda d, node=node: got[node].append(sim.now))
    return sim, fab, got


def test_serializing_link_fifo_and_bandwidth():
    sim, fab, got = _two_node_fabric()
    fab.send(0, 1, 70)  # 100 wire bytes: 50 ns per cable at 2 B/ns
    fab.send(0, 1, 70)
    assert fab.injection_busy_until(0) == 100.0
    sim.run()
    # inject tail 50, +10 wire, +5 pipeline +25 crossbar, eject tail 140, +10.
    assert got[1] == [150.0, 200.0]
    assert fab.channel_bytes[fab.injection_channel(0)] == 200
    assert fab.channel_bytes[fab.ejection_channel(1)] == 200


def test_serializing_link_full_duplex():
    sim, fab, got = _two_node_fabric()
    for _ in range(3):
        fab.send(0, 1, 70)  # node 0's cable is busy outbound for 0-150 ns...
    fab.send(1, 0, 70)  # ...while this crosses it inbound at 90-140 ns
    sim.run()
    # Opposite directions do not serialize against each other.
    assert got[0] == [150.0]
    assert got[1] == [150.0, 200.0, 250.0]


# --- units ------------------------------------------------------------------


def test_unit_conversions():
    assert us(1) == 1000.0
    assert seconds(1) == 1e9
    assert ns(5) == 5.0
    assert kib(2) == 2048
    assert mib(1) == 1024 * 1024
    assert gbps(100) == 12.5  # bytes/ns
    assert serialization_ns(1250, gbps(100)) == pytest.approx(100.0)


def test_serialization_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        serialization_ns(10, 0.0)


def test_formatting():
    assert fmt_time(12.3) == "12.3ns"
    assert fmt_time(4500) == "4.500us"
    assert fmt_time(3.2e6) == "3.200ms"
    assert fmt_time(2.5e9) == "2.500s"
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(2048) == "2.0KiB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0MiB"
    assert fmt_gbps(gbps(100)) == "100Gbps"
    assert fmt_gbps(gbps(2000)) == "2Tbps"


def test_chrome_trace_export(tmp_path):
    now = [0.0]
    t = SpanTracer(clock=lambda: now[0])
    t.enable()
    placed = t.begin("nic0", "put_placed", n=64)
    now[0] = 1500.0
    t.end(placed)
    t.begin("nic1", "completion_written", epoch=0)
    events = t.to_chrome_trace()
    assert len(events) == 2
    assert events[0]["tid"] == "nic0" and events[0]["ts"] == 0.0
    assert events[0]["dur"] == 1.5  # ns -> us
    assert events[1]["ts"] == 1.5
    assert events[1]["args"] == {"epoch": 0}
    out = tmp_path / "trace.json"
    import json

    out.write_text(json.dumps({"traceEvents": events}))
    data = json.loads(out.read_text())
    assert data["traceEvents"] == events
