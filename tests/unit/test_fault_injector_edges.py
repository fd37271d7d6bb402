"""Unit: fault-injector edge cases the scenario fuzzer exercises.

The fuzzer samples ChaosSchedules freely, so it routinely produces
compositions the curated chaos suites never did: two flap windows on
the same link that overlap in time, restart commands against a node
that already restarted, and crash-stops landing mid-checkpoint-cadence.
Each must stay well-defined — one drop per delivery, idempotent
restores, checkpoints skipped (not corrupted) while the NIC is dark.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import ChaosEvent, ChaosSchedule, FaultInjector
from repro.network.message import Delivery, Message
from repro.recovery import CheckpointDaemon

from tests.helpers import run_gens

MAILBOX = 0xAB


def _delivery(src: int, dst: int, data: bytes = b"\x42" * 8, at: float = 0.0) -> Delivery:
    """A delivery that reached the wire at *at* (windows judge it there)."""
    msg = Message(src=src, dst=dst, size=len(data), data=data)
    return Delivery(msg, arrival_time=at, hops=1)


# ----------------------------------------------- overlapping flap windows


def test_overlapping_link_flap_windows_drop_once_per_delivery():
    """Two ChaosSchedule flaps on the same link with overlapping spans:
    a delivery inside the overlap matches both windows but is dropped
    (and attributed) exactly once, and traffic flows again as soon as
    the later window closes."""
    cl = Cluster.build(n_nodes=8, topology="dragonfly", nic_type="rvma", fidelity="flow")
    topo = cl.topology
    # Nodes 0 and 2 sit on different switches; the first hop of their
    # static route is the link both flaps will take down.  Nodes 0 and 1
    # share a switch, so their traffic never crosses any link.
    assert topo.node_switch(0) == topo.node_switch(1)
    assert topo.node_switch(0) != topo.node_switch(2)
    path = topo.static_path(topo.node_switch(0), topo.node_switch(2))
    u, v = path[0], path[1]

    schedule = ChaosSchedule(
        events=[
            ChaosEvent(kind="link_flap", start=1_000.0, end=5_000.0, params=(u, v)),
            ChaosEvent(kind="link_flap", start=3_000.0, end=8_000.0, params=(u, v)),
        ]
    )
    inj = schedule.apply(FaultInjector(cl))
    flaps = [w for w in inj.log.windows if w[0] == "link_flap"]
    assert [(w[1], w[2]) for w in flaps] == [(1_000.0, 5_000.0), (3_000.0, 8_000.0)]

    fault_filter = cl.fabric.fault_filter
    assert fault_filter(_delivery(0, 2, at=4_000.0)) is True  # inside both windows
    assert inj.log.messages_dropped == 1  # one drop, despite two matches
    assert inj.log.window_drops == {"link_flap": 1}
    assert fault_filter(_delivery(0, 1, at=4_000.0)) is False  # same-switch: no link crossed
    # First window closed, second still open.
    assert fault_filter(_delivery(0, 2, at=6_000.0)) is True
    # Both closed: the link is healthy again.
    assert fault_filter(_delivery(0, 2, at=9_000.0)) is False
    assert inj.log.messages_dropped == 2
    assert cl.sim.stats.counter("faults.drops_link_flap").value == 2


# ----------------------------------------------- restore after restore


def test_restart_after_restart_is_idempotent():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    nic0 = cl.node(0).nic
    inj.fail_node(0, at=1_000.0)
    inj.restart_node(0, at=2_000.0)
    inj.restart_node(0, at=3_000.0)  # redundant: the node is already back

    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    payload = bytes(range(64))
    got = {}

    def rx():
        yield 4_000.0
        win = yield from api1.init_window(MAILBOX, epoch_threshold=len(payload))
        yield from api1.post_buffer(win, size=len(payload))
        info = yield from api1.wait_completion(win)
        got["data"] = info.read_data()

    def tx():
        yield 5_000.0  # past both restarts
        op = yield from api0.put(1, MAILBOX, data=payload)
        yield op.local_done

    run_gens(cl.sim, rx(), tx())

    assert not nic0.failed
    assert not inj.node_is_dead(0)
    assert nic0.incarnation == 1  # one crash, however many restores
    # The injector faithfully logs both commands, but the NIC treats
    # the second as a no-op rather than double-counting a restart.
    assert [t for (_n, t) in inj.log.restarts] == [2_000.0, 3_000.0]
    assert nic0.stat("recovery.restarts").value == 1
    assert got["data"] == payload  # the restored node sends normally


# ----------------------------------------------- crash during checkpoint cadence


def test_fail_node_during_checkpoint_cadence_skips_dark_ticks():
    """Crash-stop a node mid-checkpoint-cadence: ticks landing while the
    NIC is dark take nothing (the last good snapshot survives in host
    memory), and the cadence resumes untouched after the restart."""
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    nic1 = cl.node(1).nic
    daemon = CheckpointDaemon(cl.node(1), interval_ns=1_000.0, horizon_ns=10_000.0)
    daemon.start()
    inj = FaultInjector(cl)
    inj.fail_node(1, at=2_500.0)  # between the 2000 and 3000 ticks
    inj.restart_node(1, at=6_500.0)

    probed = {}

    def probe() -> None:  # mid-outage: the daemon must refuse, not corrupt
        probed["failed"] = nic1.failed
        probed["take"] = daemon.take()
        probed["latest_time"] = daemon.latest.time if daemon.latest else None

    cl.sim.schedule_at(5_000.0, probe)
    cl.sim.run()

    assert probed["failed"] is True
    assert probed["take"] is None  # a dead NIC has nothing to read
    assert probed["latest_time"] == 2_000.0  # pre-crash snapshot survives
    # Ticks at 1000/2000 took; 3000-6000 fell in the outage; 7000-10000
    # resumed after the restart: 6 checkpoints, zero while dark.
    assert daemon.taken == 6
    assert daemon.latest is not None and daemon.latest.time == 10_000.0
    assert not nic1.failed


# ----------------------------------------------- fabric route-state mirroring


def _switch_paths(fabric, src: int, dst: int) -> list:
    """Candidate switch paths of a node pair, in ``_pair_routes`` order."""
    topo = fabric.topology
    return topo.candidate_paths(topo.node_switch(src), topo.node_switch(dst))


def _multi_path_pair(fabric, sim_nodes: int):
    """A (src, dst, victim_switch) where the pair has several candidate
    paths and *victim_switch* lies on some-but-not-all of them (and on
    neither endpoint's attachment switch)."""
    for src in range(sim_nodes):
        for dst in range(sim_nodes):
            if src == dst:
                continue
            cands = _switch_paths(fabric, src, dst)
            if len(cands) < 2:
                continue
            ends = {cands[0][0], cands[0][-1]}
            for path in cands:
                for sw in path[1:-1]:
                    if sw in ends:
                        continue
                    if any(sw not in other for other in cands):
                        return src, dst, sw
    raise AssertionError("no multi-path pair with a partial victim switch")


def test_switch_failure_invalidates_stale_scorer_caches():
    """Regression: the packet fabric's cached routes bake the
    allowed-candidate set in at build time, and before route-state
    mirroring nothing invalidated them across ``fail_switch`` —
    adaptive selection kept scoring (and picking) paths through the
    dead switch.  Failing a switch must invalidate the cache, exclude
    its paths while the window is open, and re-admit them once it
    closes."""
    from repro.network.routing import RoutingMode

    cl = Cluster.build(
        n_nodes=16, topology="dragonfly", nic_type="rvma", fidelity="packet", seed=7
    )
    fabric = cl.fabric
    src, dst, victim = _multi_path_pair(fabric, 16)
    paths = _switch_paths(fabric, src, dst)

    # Warm the route cache the way live traffic would.
    fabric._select_route(fabric._pair_routes(src, dst), RoutingMode.ADAPTIVE, False)
    assert (src, dst) in fabric._route_cache

    inj = FaultInjector(cl)
    inj.fail_switch(victim, start=0.0, end=5_000.0)

    # The mark applies immediately (start <= now) and drops the cache.
    assert (src, dst) not in fabric._route_cache
    assert victim in fabric._down_switches

    _static, cands, allowed = fabric._pair_routes(src, dst)
    assert 0 < len(allowed) < len(cands)
    assert all(victim not in paths[i] for i in allowed)
    for _ in range(20):
        _chans, _hops, index = fabric._select_route(
            fabric._pair_routes(src, dst), RoutingMode.ADAPTIVE, False
        )
        assert victim not in paths[index]

    cl.sim.run()  # past the window end: the up-mark restores the switch
    assert cl.sim.now >= 5_000.0
    assert victim not in fabric._down_switches
    _static, cands, allowed = fabric._pair_routes(src, dst)
    assert allowed == tuple(range(len(cands)))


def test_overlapping_chaos_flaps_keep_link_down_until_both_close():
    """Two overlapping ChaosSchedule flaps on one link: the fabric's
    down-state is a *counter*, so the link stays routed-around through
    the union of the windows and only comes back when the later one
    closes."""
    cl = Cluster.build(n_nodes=8, topology="dragonfly", nic_type="rvma", fidelity="flow")
    topo = cl.topology
    path = topo.static_path(topo.node_switch(0), topo.node_switch(2))
    u, v = path[0], path[1]
    edge = frozenset((u, v))

    schedule = ChaosSchedule(
        events=[
            ChaosEvent(kind="link_flap", start=1_000.0, end=5_000.0, params=(u, v)),
            ChaosEvent(kind="link_flap", start=3_000.0, end=8_000.0, params=(u, v)),
        ]
    )
    schedule.apply(FaultInjector(cl))

    fabric = cl.fabric
    seen: list[int] = []
    for t in (500.0, 2_000.0, 4_000.0, 6_000.0, 9_000.0):
        cl.sim.schedule_at(t, lambda: seen.append(fabric._down_links.get(edge, 0)))
    cl.sim.run()
    assert seen == [0, 1, 2, 1, 0]
    assert edge not in fabric._down_links


def test_clear_restores_route_state_and_cancels_pending_marks():
    """clear() must undo an outstanding down-mark (open-ended
    fail_switch) and cancel not-yet-fired transitions so a cleared
    injector leaves no residue in the fabric's routing state."""
    cl = Cluster.build(n_nodes=8, topology="dragonfly", nic_type="rvma", fidelity="flow")
    fabric = cl.fabric
    topo = cl.topology
    path = topo.static_path(topo.node_switch(0), topo.node_switch(2))
    u, v = path[0], path[1]
    edge = frozenset((u, v))

    inj = FaultInjector(cl)
    inj.fail_switch(u, start=0.0)  # end=inf: nothing would ever restore it
    assert u in fabric._down_switches
    inj.clear()
    assert u not in fabric._down_switches

    inj2 = FaultInjector(cl)
    inj2.flap_link(u, v, [(1_000.0, 2_000.0)])
    inj2.clear()  # before the window opens: both transitions cancelled
    seen: list[int] = []
    cl.sim.schedule_at(1_500.0, lambda: seen.append(fabric._down_links.get(edge, 0)))
    cl.sim.run()
    assert seen == [0]
    assert edge not in fabric._down_links
