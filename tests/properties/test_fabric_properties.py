"""Property tests: fabric conservation and process-layer invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.network import FlowFabric, NetworkConfig, PacketFabric, RoutingMode, make_topology
from repro.sim import AllOf, Future, Simulator, spawn


@given(
    kind=st.sampled_from(["dragonfly", "fattree", "hyperx", "torus3d"]),
    routing=st.sampled_from([RoutingMode.STATIC, RoutingMode.ADAPTIVE]),
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),  # src
            st.integers(min_value=0, max_value=15),  # dst
            st.integers(min_value=0, max_value=20000),  # size
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_flow_fabric_conserves_every_message(kind, routing, sends, seed):
    """Every message sent is delivered exactly once, to the right node,
    with non-decreasing time and full size — no loss, no duplication,
    regardless of topology, routing mode or traffic mix."""
    sim = Simulator(seed=seed)
    topo = make_topology(kind, 16)
    fab = FlowFabric(sim, topo, NetworkConfig(routing=routing))
    deliveries = {n: [] for n in range(16)}
    for n in range(16):
        fab.attach(n, lambda d, n=n: deliveries[n].append(d))
    sent_ids = []
    for src, dst, size in sends:
        sent_ids.append(fab.send(src, dst, size).msg_id)
    sim.run()
    got = [(n, d) for n in range(16) for d in deliveries[n]]
    assert len(got) == len(sends)
    got_ids = sorted(d.message.msg_id for _, d in got)
    assert got_ids == sorted(sent_ids)
    for n, d in got:
        assert d.message.dst == n
        assert d.arrival_time >= d.message.send_time
        assert d.message.size == sends[sent_ids.index(d.message.msg_id)][2]


@given(
    n_messages=st.integers(min_value=1, max_value=10),
    size=st.integers(min_value=0, max_value=30000),
    routing=st.sampled_from([RoutingMode.STATIC, RoutingMode.ADAPTIVE]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_packet_fabric_conserves_every_byte(n_messages, size, routing, seed):
    """All fragments of every message arrive exactly once, covering the
    payload with no gaps or overlaps, under any routing mode."""
    sim = Simulator(seed=seed)
    fab = PacketFabric(sim, make_topology("fattree", 16), NetworkConfig(routing=routing))
    per_msg: dict[int, list] = {}
    fab.attach(9, lambda d: per_msg.setdefault(d.message.msg_id, []).append(d.packet))
    for _ in range(n_messages):
        fab.send(3, 9, size)
    sim.run()
    assert len(per_msg) == n_messages
    for pkts in per_msg.values():
        spans = sorted((p.offset, p.offset + p.size) for p in pkts)
        assert spans[0][0] == 0
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 == s2  # contiguous, no overlap
        assert spans[-1][1] == size


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_allof_resolves_at_latest_delay(delays):
    sim = Simulator()
    futures = [Future(sim) for _ in delays]
    for fut, d in zip(futures, delays):
        sim.schedule(d, fut.resolve, d)

    def proc():
        values = yield AllOf(futures)
        return values

    p = spawn(sim, proc())
    sim.run()
    assert p.result == list(delays)
    assert sim.now == max(delays)


@given(
    steps=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=20)
)
@settings(max_examples=60, deadline=None)
def test_process_sleeps_accumulate_exactly(steps):
    sim = Simulator()

    def proc():
        for s in steps:
            yield s
        return sim.now

    p = spawn(sim, proc())
    sim.run()
    assert p.result == sum(steps) or abs(p.result - sum(steps)) < 1e-6
