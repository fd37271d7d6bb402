"""Model-validation tests (DESIGN.md §7 quality gates).

These pin down properties the *simulator itself* must have for the
reproduction to be trustworthy: scale consistency of the headline
ratios, adaptive routing actually helping under hotspots, and exact
determinism under a fixed seed.
"""

import pytest

from repro.cluster import Cluster
from repro.motifs import RdmaProtocol, RvmaProtocol, Sweep3D
from repro.network import FlowFabric, NetworkConfig, RoutingMode, make_topology
from repro.sim import Simulator
from repro.units import gbps


def _sweep_speedup(n_nodes: int) -> float:
    out = {}
    for nic in ("rvma", "rdma"):
        cl = Cluster.build(
            n_nodes=n_nodes, topology="dragonfly", nic_type=nic, fidelity="flow",
            net_config=NetworkConfig(link_bw=gbps(100), routing=RoutingMode.ADAPTIVE),
        )
        proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
        out[nic] = Sweep3D(cl, proto, kb=4, compute_ns=900.0).run().elapsed
    return out["rdma"] / out["rvma"]


def test_sweep_speedup_stable_across_scales():
    """The headline ratio must be a protocol property, not an artifact
    of one node count: 16 -> 64 -> 144 ranks stay in a tight band."""
    speedups = [_sweep_speedup(n) for n in (16, 64, 144)]
    assert max(speedups) / min(speedups) < 1.4, speedups
    assert all(s > 2.0 for s in speedups)


def test_adaptive_routing_beats_static_under_hotspot():
    """Sanity for the network model itself: when many flows share one
    D-mod-k core, adaptive candidates spread the load and finish sooner."""
    times = {}
    for routing in (RoutingMode.STATIC, RoutingMode.ADAPTIVE):
        sim = Simulator(seed=11)
        topo = make_topology("fattree", 16)
        fab = FlowFabric(sim, topo, NetworkConfig(routing=routing, link_bw=gbps(100)))
        last = [0.0]
        for n in range(16):
            fab.attach(n, lambda d: last.__setitem__(0, max(last[0], d.arrival_time)))
        # Hotspot: 6 senders in other pods blast one destination's pod.
        for src in (4, 6, 8, 10, 12, 14):
            for _ in range(4):
                fab.send(src, 1, 200_000)
        sim.run()
        times[routing] = last[0]
    assert times[RoutingMode.ADAPTIVE] < times[RoutingMode.STATIC]


def test_identical_seed_identical_motif_timeline():
    def run(seed):
        cl = Cluster.build(
            n_nodes=16, topology="hyperx", nic_type="rvma", fidelity="flow", seed=seed
        )
        res = Sweep3D(cl, RvmaProtocol(), kb=3).run()
        return res.elapsed, cl.sim.events_executed

    a = run(42)
    b = run(42)
    c = run(43)
    assert a == b
    # A different seed changes adaptive choices; the run still succeeds
    # and lands in the same regime (timing may or may not coincide).
    assert c[0] > 0


def test_rdma_and_rvma_move_identical_payload_volumes():
    """Fairness check: the comparison never gives RVMA less work."""
    stats = {}
    for nic in ("rvma", "rdma"):
        cl = Cluster.build(n_nodes=16, topology="dragonfly", nic_type=nic, fidelity="flow")
        proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
        res = Sweep3D(cl, proto, kb=4).run()
        stats[nic] = (res.messages, res.bytes_moved)
    assert stats["rvma"] == stats["rdma"]


def test_dmodk_hotspot_is_switch_link_not_injection():
    """The fat-tree/static outlier in Figs 7-8 is a real D-mod-k
    convergence hotspot: under static routing the hottest channel is an
    inter-switch link carrying multiples of any channel's load under
    adaptive routing, where the (unavoidable) injection channels lead."""
    from repro.motifs import Halo3D, RvmaProtocol
    from repro.network import LINK_RATES, NetworkConfig

    hottest = {}
    for routing in (RoutingMode.STATIC, RoutingMode.ADAPTIVE):
        cl = Cluster.build(
            n_nodes=64, topology="fattree", nic_type="rvma", fidelity="flow",
            net_config=NetworkConfig(link_bw=LINK_RATES["2Tbps"], routing=routing),
        )
        Halo3D(cl, RvmaProtocol(), iterations=3, msg_bytes=96 * 1024).run()
        hottest[routing] = cl.fabric.hottest_channels(1)[0]
    static_name, static_bytes = hottest[RoutingMode.STATIC]
    adaptive_name, adaptive_bytes = hottest[RoutingMode.ADAPTIVE]
    assert static_name.startswith("link[")  # converged switch link
    assert adaptive_name.startswith("inject[")  # balanced: injection floor
    assert static_bytes > 2 * adaptive_bytes


def test_headline_speedup_robust_across_seeds():
    """The dragonfly/adaptive speedup is a protocol property, not an
    artifact of one RNG seed's adaptive choices."""
    speedups = []
    for seed in (7, 99, 12345):
        out = {}
        for nic in ("rvma", "rdma"):
            cl = Cluster.build(
                n_nodes=32, topology="dragonfly", nic_type=nic, fidelity="flow",
                net_config=NetworkConfig(link_bw=gbps(2000), routing=RoutingMode.ADAPTIVE),
                seed=seed,
            )
            proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
            out[nic] = Sweep3D(cl, proto, kb=4, compute_ns=900.0).run().elapsed
        speedups.append(out["rdma"] / out["rvma"])
    assert max(speedups) / min(speedups) < 1.15, speedups
    assert all(s > 2.5 for s in speedups)
