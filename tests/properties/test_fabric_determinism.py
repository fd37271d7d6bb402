"""Conformance of the vectorized packet fabric to the per-packet oracle.

:class:`tests.helpers.ReferencePacketFabric` is the reference — every
packet a ``RoutedPacket`` hopping from switch to switch, two engine
events per hop, with its own horizons keyed by directed hop and its own
copy of the near-best tie-break.  :class:`PacketFabric` runs the
batched struct-of-arrays path on ``BaseFabric``'s channel tables and
shared route selection: one engine event per link-timestep.  The
contract (see ``network/switch.py``) is that the two are
indistinguishable on every observable: byte-identical delivery streams
(order, payload, per-packet timing), identical ``fabric.*`` metrics and
per-switch counters, and identical span streams — across routing
modes, topologies and fault schedules.  Event *counts* are the one
sanctioned difference.

These tests drive a bare :class:`PacketFabric` (no NICs) with seeded
random traffic so any divergence is attributable to the fabric alone,
mirroring how ``test_engine_determinism.py`` isolates the scheduler.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector
from repro.network.routing import RoutingMode
from repro.network.switch import PacketFabric
from repro.network.topology import make_topology
from repro.observability import MetricsRegistry
from repro.sim import Simulator
from tests.helpers import ReferencePacketFabric

SEED = 0xFAB51C
WAVES = 8
SENDS_PER_WAVE = 4
WAVE_GAP_NS = 700.0


class _StubCluster:
    """Duck-typed stand-in: exactly what FaultInjector's fabric-level
    faults touch (node-death faults are out of scope here)."""

    def __init__(self, sim: Simulator, fabric: PacketFabric, topology) -> None:
        self.sim = sim
        self.fabric = fabric
        self.topology = topology


def _inter_switch_route(topo) -> list[int]:
    """Static switch route of some pair of nodes on different switches."""
    for dst in range(1, topo.n_nodes):
        a, b = topo.node_switch(0), topo.node_switch(dst)
        if a != b:
            return topo.static_path(a, b)
    raise AssertionError("single-switch topology has no inter-switch route")


def _apply_faults(sim: Simulator, fabric: PacketFabric, topo, kind: str) -> None:
    if kind == "none":
        return
    inj = FaultInjector(_StubCluster(sim, fabric, topo))
    path = _inter_switch_route(topo)
    if kind == "flaps":
        # Two overlapping windows on the first inter-switch cable.
        inj.flap_link(path[0], path[1], [(500.0, 2_500.0), (1_500.0, 4_000.0)])
    elif kind == "switch_fail":
        victim = path[1] if len(path) > 2 else path[0]
        inj.fail_switch(victim, start=800.0, end=3_000.0)
    else:  # pragma: no cover - guard against typo'd parametrization
        raise ValueError(kind)


def _run(
    fabric_cls: type,
    topology: str,
    n_nodes: int,
    mode: RoutingMode,
    faults: str,
    incast: bool = False,
) -> tuple:
    sim = Simulator(seed=SEED)
    sim.spans.enable("fabric")
    topo = make_topology(topology, n_nodes)
    fabric = fabric_cls(sim, topo)

    deliveries: list = []

    def receiver(node: int):
        def on_delivery(d) -> None:
            deliveries.append(
                (
                    sim.now,
                    node,
                    d.message.src,
                    d.packet.seq,
                    d.packet.size,
                    d.packet.data,
                    d.message.send_time,
                    d.arrival_time,
                    d.hops,
                    d.path_index,
                )
            )

        return on_delivery

    for node in range(n_nodes):
        fabric.attach(node, receiver(node))
    _apply_faults(sim, fabric, topo, faults)

    rng = sim.rng.stream("traffic")

    def send_wave(wave: int) -> None:
        for _ in range(SENDS_PER_WAVE):
            src = int(rng.integers(0, n_nodes))
            dst = int(rng.integers(0, n_nodes))
            if incast:
                src, dst = src or 1, 0
            elif src == dst:
                dst = (dst + 1) % n_nodes
            size = int(rng.integers(1, 4)) * 4096 + int(rng.integers(0, 512))
            fabric.send(src, dst, size, data=bytes([wave % 251]) * size, mode=mode)

    for wave in range(WAVES):
        sim.schedule_at(wave * WAVE_GAP_NS, send_wave, wave)
    sim.run()

    latency_histogram: dict[float, int] = {}
    for rec in deliveries:
        lat = rec[7] - rec[6]  # arrival - send, exact floats
        latency_histogram[lat] = latency_histogram.get(lat, 0) + 1
    spans = tuple(
        (s.category, s.name, s.start, s.end, tuple(sorted(s.fields.items())))
        for s in sim.spans.spans()
    )
    return (
        tuple(deliveries),
        tuple(sorted(latency_histogram.items())),
        MetricsRegistry.collect(sim).counters,
        sim.stats.instances("fabric.packets_forwarded"),
        spans,
        sim.now,
    )


CASES = [
    ("star", 8, RoutingMode.STATIC, "none"),
    ("dragonfly", 16, RoutingMode.STATIC, "switch_fail"),
    ("dragonfly", 16, RoutingMode.ADAPTIVE, "flaps"),
    ("torus3d", 27, RoutingMode.ADAPTIVE, "switch_fail"),
    ("fattree", 16, RoutingMode.ADAPTIVE, "none"),
]


@pytest.mark.parametrize(
    "topology,n_nodes,mode,faults",
    CASES,
    ids=[f"{t}-{m.name.lower()}-{f}" for t, _n, m, f in CASES],
)
def test_fast_matches_plain_oracle(topology, n_nodes, mode, faults):
    fast = _run(PacketFabric, topology, n_nodes, mode, faults)
    plain = _run(ReferencePacketFabric, topology, n_nodes, mode, faults)
    # Compare piecewise for readable failures; the final clause pins
    # everything at once so new fields can't silently drift.
    assert fast[0] == plain[0], "delivery stream diverged"
    assert fast[1] == plain[1], "per-message latency histogram diverged"
    assert fast[2] == plain[2], "fabric.* metrics diverged"
    assert fast[3] == plain[3], "per-switch forward counters diverged"
    assert fast[4] == plain[4], "span stream diverged"
    assert fast == plain


def test_fast_matches_plain_oracle_under_incast():
    """Every sender into node 0: the shared ejection channel is always
    backlogged, so the packet fabric's scores must leave it out exactly
    as the oracle's do (the flow fabric counts it)."""
    case = ("dragonfly", 16, RoutingMode.ADAPTIVE, "none")
    assert _run(PacketFabric, *case, incast=True) == _run(
        ReferencePacketFabric, *case, incast=True
    )


@pytest.mark.parametrize(
    "fabric_cls", [PacketFabric, ReferencePacketFabric], ids=["fast", "plain"]
)
def test_each_mode_self_deterministic(fabric_cls):
    """Each fabric is also run-to-run deterministic per seed."""
    case = ("dragonfly", 16, RoutingMode.ADAPTIVE, "flaps")
    assert _run(fabric_cls, *case) == _run(fabric_cls, *case)


def test_fast_mode_sends_deliver_everything_under_chaos():
    """Sanity floor under faults: every packet is either delivered or
    attributed to a drop — the batch slot arrays must drain fully."""
    result = _run(PacketFabric, "dragonfly", 16, RoutingMode.ADAPTIVE, "flaps")
    metrics = result[2]
    assert metrics["fabric.messages_sent"] == WAVES * SENDS_PER_WAVE
    delivered = len(result[0])
    dropped = metrics["fabric.deliveries_dropped"]
    assert delivered > 0
    assert dropped >= 0
    # every fragmented packet accounted for
    assert metrics["fabric.packets_delivered"] == delivered + dropped
