"""Fault injection: node failures, message loss, corruption, fault windows.

These drive the §IV-F fault-tolerance demonstrations (mid-epoch sender
death + ``rewind`` recovery) and the robustness/chaos tests.  Injection
points: the NIC's ``failed`` flag (node death) and the fabric's
``fault_filter`` hook (loss/corruption at delivery).

Two classes of fabric fault are supported:

* **i.i.d. faults** — :meth:`FaultInjector.drop_messages` /
  :meth:`FaultInjector.corrupt_payloads`, each with its *own* selector
  and probability;
* **scheduled fault windows** — :meth:`FaultInjector.drop_window`,
  :meth:`FaultInjector.flap_link`, :meth:`FaultInjector.fail_switch`,
  :meth:`FaultInjector.partition`: deterministic ``[start, end)``
  intervals during which matching traffic is dropped, modelling link
  flaps, switch failures and network partitions rather than uniform
  noise.  :class:`repro.faults.chaos.ChaosSchedule` composes them.

Multiple injectors (or any other owner of ``fabric.fault_filter``)
compose: installing chains onto whatever filter was already present,
and :meth:`FaultInjector.clear` restores the previous hook instead of
nuking it.

Link-flap and switch-failure windows match a delivery when the failed
element lies on the *static* route between the endpoints — an
approximation under adaptive routing (documented in
``docs/ARCHITECTURE.md``), chosen because deliveries do not retain
their hop-by-hop channel list at flow fidelity.  Those windows are
also mirrored into the fabric's routing state
(:meth:`repro.network.fabric.BaseFabric.set_link_state` /
``set_switch_state``) so route and scorer caches are invalidated at
each transition and *adaptive* selection stops scoring paths through
the failed element while the window is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..cluster.builder import Cluster
from ..network.message import Delivery

Selector = Callable[[Delivery], bool]


@dataclass
class FaultLog:
    """What the injector actually did (for test assertions)."""

    node_failures: list[tuple[int, float]] = field(default_factory=list)
    #: crash-stop events: (node, time) per crash and per restart.
    crashes: list[tuple[int, float]] = field(default_factory=list)
    restarts: list[tuple[int, float]] = field(default_factory=list)
    messages_dropped: int = 0
    payloads_corrupted: int = 0
    #: drops attributed to scheduled fault windows, by kind.
    window_drops: dict[str, int] = field(default_factory=dict)
    #: every scheduled window, as (kind, start, end, description).
    windows: list[tuple[str, float, float, str]] = field(default_factory=list)

    def count_window_drop(self, kind: str) -> None:
        self.window_drops[kind] = self.window_drops.get(kind, 0) + 1

    @property
    def total_window_drops(self) -> int:
        return sum(self.window_drops.values())


@dataclass
class FaultWindow:
    """One scheduled fault: drop matching deliveries during [start, end)."""

    kind: str  # "window" | "link_flap" | "switch_failure" | "partition"
    start: float
    end: float
    predicate: Selector
    label: str = ""

    def matches(self, now: float, delivery: Delivery) -> bool:
        return self.start <= now < self.end and self.predicate(delivery)


class FaultInjector:
    """Schedules and applies faults on a cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.log = FaultLog()
        self._drop_prob = 0.0
        self._drop_selector: Optional[Selector] = None
        self._corrupt_prob = 0.0
        self._corrupt_selector: Optional[Selector] = None
        self._windows: list[FaultWindow] = []
        self._dead_nodes: set[int] = set()
        #: recovery hooks: fired with the node id after a crash/restart
        #: takes effect (the recovery manager arms these).
        self.on_crash: list[Callable[[int], None]] = []
        self.on_restart: list[Callable[[int], None]] = []
        #: static-route cache for link/switch window matching.
        self._route_cache: dict[tuple[int, int], list[int]] = {}
        #: fabric route-state marks: (state, events, up_fn) per scheduled
        #: down/up transition, so clear() can cancel and restore.
        self._route_marks: list[tuple[dict, list, Callable[[], None]]] = []
        self._active = False
        self._installed_filter: Optional[Selector] = None
        self._prev_filter: Optional[Selector] = None

    # --- node death ---------------------------------------------------------------

    def fail_node_at(self, node_id: int, time: float) -> None:
        """Kill *node_id* at the given simulated time.

        Its NIC drops all subsequent traffic; in-flight messages it
        already sent still arrive (they are on the wire).
        """

        def do() -> None:
            self.cluster.node(node_id).nic.fail()
            self._dead_nodes.add(node_id)
            self.log.node_failures.append((node_id, self.sim.now))

        self.sim.post_at(time, do)

    def node_is_dead(self, node_id: int) -> bool:
        """Whether *node_id* has been killed by this injector."""
        return node_id in self._dead_nodes

    # --- crash-stop with restart ------------------------------------------------------

    def fail_node(self, node_id: int, at: Optional[float] = None) -> None:
        """Crash-stop *node_id*: atomically destroy its NIC state (LUT,
        in-flight ops, reliability flows) in addition to dropping
        traffic.  Unlike :meth:`fail_node_at` (flag-only, permanent
        fail-silent), a crash-stopped node can be brought back with
        :meth:`restart_node` — amnesiac until the recovery protocol
        rejoins it (:mod:`repro.recovery`)."""

        def do() -> None:
            self.cluster.node(node_id).nic.crash()
            self._dead_nodes.add(node_id)
            self.log.crashes.append((node_id, self.sim.now))
            self.sim.stats.counter("faults.crashes").add()
            for cb in list(self.on_crash):
                cb(node_id)

        self.sim.post_at(self.sim.now if at is None else at, do)

    def restart_node(self, node_id: int, at: Optional[float] = None) -> None:
        """Restart a crash-stopped node: it accepts traffic again but
        knows nothing until its recovery agent rejoins its peers."""

        def do() -> None:
            self.cluster.node(node_id).nic.restart()
            self._dead_nodes.discard(node_id)
            self.log.restarts.append((node_id, self.sim.now))
            self.sim.stats.counter("faults.restarts").add()
            for cb in list(self.on_restart):
                cb(node_id)

        self.sim.post_at(self.sim.now if at is None else at, do)

    def crash_restart(self, node_id: int, crash_at: float, restart_at: float) -> None:
        """Schedule a full crash-stop + restart cycle for one node."""
        if restart_at <= crash_at:
            raise ValueError("restart must come after the crash")
        self.fail_node(node_id, at=crash_at)
        self.restart_node(node_id, at=restart_at)

    # --- i.i.d. fabric faults -------------------------------------------------------

    def drop_messages(self, probability: float, selector: Optional[Selector] = None) -> None:
        """Drop each delivery with the given probability (optionally only
        those matching *selector*).  The selector applies to drops only;
        :meth:`corrupt_payloads` keeps its own."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._drop_prob = probability
        self._drop_selector = selector
        self._install()

    def corrupt_payloads(self, probability: float, selector: Optional[Selector] = None) -> None:
        """Flip the first payload byte of affected deliveries.

        Corruption (unlike loss) is observable by application-level
        checksums; used by the integrity tests.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._corrupt_prob = probability
        self._corrupt_selector = selector
        self._install()

    # --- scheduled fault windows ----------------------------------------------------

    def drop_window(
        self,
        start: float,
        end: float,
        selector: Optional[Selector] = None,
        kind: str = "window",
        label: str = "",
    ) -> FaultWindow:
        """Drop (matching) deliveries during the interval [start, end)."""
        if end <= start:
            raise ValueError("fault window must have end > start")
        window = FaultWindow(
            kind=kind, start=start, end=end,
            predicate=selector if selector is not None else (lambda _d: True),
            label=label or kind,
        )
        self._windows.append(window)
        self.log.windows.append((kind, start, end, window.label))
        self._install()
        return window

    def flap_link(self, u: int, v: int, windows: Iterable[tuple[float, float]]) -> None:
        """Take the switch link u<->v down for each (start, end) window.

        Deliveries whose static route crosses the link (either
        direction) are dropped while a window is open.
        """
        edge = frozenset((u, v))

        def crosses(delivery: Delivery) -> bool:
            path = self._static_route(delivery.message.src, delivery.message.dst)
            return any(frozenset(e) == edge for e in zip(path, path[1:]))

        for start, end in windows:
            self.drop_window(start, end, crosses, kind="link_flap", label=f"link sw{u}<->sw{v}")
            self._mark_route_element(
                start,
                end,
                lambda: self.cluster.fabric.set_link_state(u, v, up=False),
                lambda: self.cluster.fabric.set_link_state(u, v, up=True),
            )

    def fail_switch(self, switch_id: int, start: float, end: float = math.inf) -> None:
        """Take a whole switch down during [start, end) (default: forever).

        All traffic whose static route traverses the switch — including
        traffic of the nodes cabled to it — is dropped.
        """

        def through(delivery: Delivery) -> bool:
            return switch_id in self._static_route(delivery.message.src, delivery.message.dst)

        self.drop_window(start, end, through, kind="switch_failure", label=f"sw{switch_id}")
        self._mark_route_element(
            start,
            end,
            lambda: self.cluster.fabric.set_switch_state(switch_id, up=False),
            lambda: self.cluster.fabric.set_switch_state(switch_id, up=True),
        )

    def partition(
        self, group: Iterable[int], start: float, end: float = math.inf
    ) -> None:
        """Partition the network: nodes in *group* cannot exchange
        traffic with the rest of the cluster during [start, end)."""
        members = frozenset(group)

        def crosses_cut(delivery: Delivery) -> bool:
            return (delivery.message.src in members) != (delivery.message.dst in members)

        label = f"{{{','.join(str(n) for n in sorted(members))}}} | rest"
        self.drop_window(start, end, crosses_cut, kind="partition", label=label)

    def _static_route(self, src: int, dst: int) -> list[int]:
        """Switch sequence of the static route between two nodes (cached)."""
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            topo = self.cluster.topology
            path = self._route_cache[key] = topo.static_path(
                topo.node_switch(src), topo.node_switch(dst)
            )
        return path

    def _mark_route_element(
        self,
        start: float,
        end: float,
        down_fn: Callable[[], None],
        up_fn: Callable[[], None],
    ) -> None:
        """Mirror a fault window into the fabric's routing state.

        Before this existed the fabric kept scoring (and handing out)
        paths through failed links and switches: its route cache bakes
        the allowed-candidate set in at build time and nothing
        invalidated it across ``fail_switch`` / ``flap_link``.  Marking
        the element down via ``set_link_state`` / ``set_switch_state``
        invalidates that cache and steers *adaptive* routing around
        the element for the duration of the window (static routing
        stays oblivious, matching the drop-window semantics).  No-op on fabrics without route
        state (e.g. bespoke test doubles)."""
        fabric = getattr(self.cluster, "fabric", None)
        if fabric is None or not hasattr(fabric, "set_switch_state"):
            return
        state = {"down": False, "up": False}

        def apply_down() -> None:
            state["down"] = True
            down_fn()

        def apply_up() -> None:
            state["up"] = True
            up_fn()

        sim = self.sim
        events: list = []
        if start <= sim.now:
            apply_down()
        else:
            events.append(sim.schedule_at(start, apply_down))
        if not math.isinf(end):
            events.append(sim.schedule_at(end, apply_up))
        self._route_marks.append((state, events, up_fn))

    # --- filter installation ----------------------------------------------------------

    def _apply(self, delivery: Delivery) -> bool:
        """This injector's verdict on one delivery (True = drop).

        The fabric asks at the end of the receiving NIC's pipeline, but
        a window is judged at the wire arrival: a window that closes
        between the two still drops the delivery.
        """
        arrival = delivery.arrival_time
        for window in self._windows:
            if window.matches(arrival, delivery):
                self.log.messages_dropped += 1
                self.log.count_window_drop(window.kind)
                self.sim.stats.counter(f"faults.drops_{window.kind}").add()
                return True
        rng = self.sim.rng
        if (
            self._drop_prob
            and (self._drop_selector is None or self._drop_selector(delivery))
            and rng.random("faults.drop") < self._drop_prob
        ):
            self.log.messages_dropped += 1
            self.sim.stats.counter("faults.drops_random").add()
            return True
        if (
            self._corrupt_prob
            and (self._corrupt_selector is None or self._corrupt_selector(delivery))
            and rng.random("faults.corrupt") < self._corrupt_prob
        ):
            self._corrupt(delivery)
        return False

    def _install(self) -> None:
        """Arm this injector, chaining onto any existing fault filter.

        A second injector composes with the first (a delivery is dropped
        if *any* armed filter drops it) instead of clobbering it.
        """
        self._active = True
        if self._installed_filter is not None:
            return
        fabric = self.cluster.fabric
        prev = fabric.fault_filter

        def fault_filter(delivery: Delivery) -> bool:
            if self._active and self._apply(delivery):
                return True
            return prev(delivery) if prev is not None else False

        self._prev_filter = prev
        self._installed_filter = fault_filter
        fabric.fault_filter = fault_filter

    def _corrupt(self, delivery: Delivery) -> None:
        target = delivery.packet if delivery.packet is not None else delivery.message
        if target.data:
            flipped = bytes([target.data[0] ^ 0xFF]) + target.data[1:]
            target.data = flipped
            self.log.payloads_corrupted += 1

    def clear(self) -> None:
        """Disarm this injector's fabric-level faults (node deaths are
        permanent).  Restores the previously installed fault filter when
        this injector is at the head of the chain; when another hook was
        installed after us, we stay in place as a pass-through."""
        self._drop_prob = 0.0
        self._drop_selector = None
        self._corrupt_prob = 0.0
        self._corrupt_selector = None
        self._windows.clear()
        self._active = False
        for state, events, up_fn in self._route_marks:
            for ev in events:
                ev.cancel()
            if state["down"] and not state["up"]:
                up_fn()  # restore an element we left marked down
        self._route_marks.clear()
        fabric = self.cluster.fabric
        if self._installed_filter is not None and fabric.fault_filter is self._installed_filter:
            fabric.fault_filter = self._prev_filter
            self._installed_filter = None
            self._prev_filter = None

    # --- diagnostics -------------------------------------------------------------------

    def summary(self) -> list[str]:
        """Human-readable account of injected faults (chaos-run logs)."""
        lines = [
            f"messages dropped: {self.log.messages_dropped} "
            f"(windows: {self.log.total_window_drops})",
            f"payloads corrupted: {self.log.payloads_corrupted}",
        ]
        for node, t in self.log.node_failures:
            lines.append(f"node {node} killed at {t:.0f}ns")
        for node, t in self.log.crashes:
            lines.append(f"node {node} crash-stopped at {t:.0f}ns")
        for node, t in self.log.restarts:
            lines.append(f"node {node} restarted at {t:.0f}ns")
        for kind, start, end, label in self.log.windows:
            hits = self.log.window_drops.get(kind, 0)
            end_s = "inf" if math.isinf(end) else f"{end:.0f}"
            lines.append(f"{kind} [{label}] {start:.0f}-{end_s}ns ({hits} {kind} drops total)")
        return lines
