"""Importable helpers shared across test modules."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.network.fabric import BaseFabric
from repro.network.message import Delivery, Message, Packet
from repro.network.routing import RoutingMode
from repro.sim import SimProcess, Simulator, spawn
from repro.sim.engine import SimulationError
from repro.sim.event import Event, PRIORITY_HIGH, PRIORITY_NORMAL
from repro.sim.rng import RngRegistry
from repro.sim.stats import StatsRegistry


class ReferenceSimulator:
    """The pre-optimization pure-heap engine, kept verbatim as an oracle.

    The scheduler-conformance suite runs identical programs on this and
    on :class:`repro.sim.Simulator` and asserts identical event order, tie-breaking, cancellation and
    run-window behaviour.  Do not "improve" this class: its value is
    that it stays the simple, obviously-correct implementation the
    optimized engine must match event-for-event.
    """

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.stats = StatsRegistry()

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        self._seq += 1
        ev = Event(time, priority, self._seq, fn, args)
        heapq.heappush(self._heap, (time, priority, self._seq, ev))
        return ev

    def cancel(self, event: Event) -> None:
        event.cancel()

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        heap = self._heap
        while heap:
            time, _prio, _seq, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self.now = time
            self.events_executed += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is None and max_events is None:
                heap = self._heap
                pop = heapq.heappop
                while heap:
                    time, _prio, _seq, ev = pop(heap)
                    if ev.cancelled:
                        continue
                    self.now = time
                    self.events_executed += 1
                    ev.fn(*ev.args)
                return self.now
            executed = 0
            while True:
                nxt = self.peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self.now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        return self.now

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)


@dataclass(slots=True)
class RoutedPacket:
    """A packet plus its source route and current position."""

    packet: Packet
    route: list[int]  # switch ids, first = source's switch
    hop: int  # index into route of the switch currently holding it
    path_index: int


class ReferencePacketFabric(BaseFabric):
    """The per-packet event chain the vectorized fabric replaced, kept as an oracle.

    Every packet is a :class:`RoutedPacket` hopping from switch to
    switch over serializing full-duplex cables: one engine event per
    wire arrival and one per crossbar traversal.  The fabric
    conformance suite asserts :class:`PacketFabric` matches it on every
    observable (delivery stream, timing, ``fabric.*`` metrics, spans);
    only ``events_executed`` differs.  It shares nothing with the
    production fabric's channel tables: horizons live in its own dict
    keyed by the directed hop, routes come straight from the topology,
    and it keeps its own copy of the near-best tie-break — so a
    channel-index mapping error cannot hide in both.  Like
    :class:`ReferenceSimulator`, keep it simple and obviously correct
    rather than fast.
    """

    def __init__(
        self, sim: Simulator, topology, config=None, name: str = "pktfabric"
    ) -> None:
        super().__init__(sim, topology, config, name)
        self.forwarded = [
            sim.stats.counter("fabric.packets_forwarded", f"switch{i}")
            for i in range(topology.n_switches)
        ]
        self.packets_delivered = self.stat("fabric.packets_delivered")
        self._msg_spans: dict[int, list] = {}
        #: directed hop -> busy-until: ("inj", node), ("link", u, v) or
        #: ("ej", node).
        self._busy: dict[tuple, float] = {}
        self._inv_bw = 1.0 / self.config.link_bw

    def send(
        self,
        src: int,
        dst: int,
        size: int,
        header: Any = None,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
    ) -> Message:
        """Fragment into MTU packets, source-routing each independently."""
        mode = mode or self.config.routing
        msg = self._mk_message(src, dst, size, header, data)
        n_pkts = 0
        for pkt in msg.fragment():
            route, index = self.select_path(src, dst, mode)
            env = RoutedPacket(packet=pkt, route=route, hop=0, path_index=index)
            self._transmit(("inj", src), self.config.injection_latency, env, self._on_switch_arrival)
            n_pkts += 1
        spans = self.sim.spans
        if spans.active and spans.wants("fabric"):
            sp = spans.begin("fabric", "msg_flight", src=src, dst=dst, size=size, packets=n_pkts)
            if sp is not None:
                self._msg_spans[id(msg)] = [sp, n_pkts]
        return msg

    def select_path(self, src: int, dst: int, mode: RoutingMode) -> tuple[list[int], int]:
        """Load-aware choice of ``(switch route, candidate index)``.

        UGAL scoring (queued backlog on the injection cable and every
        switch link, plus a hop penalty) over the candidates crossing
        no down element, a uniform draw among those within 5 % or 1 ns
        of the best from the fabric's route rng stream; a lone
        candidate is taken without a draw.
        """
        topo = self.topology
        s_sw, d_sw = topo.node_switch(src), topo.node_switch(dst)
        if mode is RoutingMode.STATIC:
            return topo.static_path(s_sw, d_sw), 0
        cands = topo.candidate_paths(s_sw, d_sw)
        if len(cands) == 1:
            return cands[0], 0
        allowed = self._allowed_candidates(cands)
        now = self.sim.now
        scores = []
        for i in allowed:
            path = cands[i]
            score = len(path) * self.config.hop_latency
            hops = [("inj", src)] + [("link", u, v) for u, v in zip(path, path[1:])]
            for hop in hops:
                t = self._busy.get(hop, 0.0)
                if t > now:
                    score += t - now
            scores.append(score)
        best = min(scores)
        slack = max(best * 0.05, 1.0)
        near = [allowed[k] for k, score in enumerate(scores) if score <= best + slack]
        index = near[self.sim.rng.choice(f"{self.name}.route", len(near))]
        return cands[index], index

    def injection_busy_until(self, node: int) -> float:
        return self._busy.get(("inj", node), 0.0)

    def _transmit(self, hop: tuple, latency: float, env: RoutedPacket, on_arrival) -> None:
        """Serialize *env* onto one cable direction, FIFO behind earlier
        packets; it arrives one propagation latency after its tail."""
        now = self.sim.now
        start = max(self._busy.get(hop, 0.0), now)
        tail = start + env.packet.wire_size * self._inv_bw
        self._busy[hop] = tail
        # PRIORITY_HIGH so arrivals at T are visible to work scheduled
        # at T with normal priority.
        self.sim.post_at(tail + latency, on_arrival, env, priority=PRIORITY_HIGH)

    def _on_switch_arrival(self, env: RoutedPacket) -> None:
        """Receive a packet, traverse the crossbar, forward it."""
        xbar = env.packet.wire_size / self.config.crossbar_bw
        self.sim.post(self.config.switch_latency + xbar, self._switch_forward, env)

    def _switch_forward(self, env: RoutedPacket) -> None:
        here = env.route[env.hop]
        self.forwarded[here].value += 1
        env.hop += 1
        if env.hop < len(env.route):
            nxt = env.route[env.hop]
            self._transmit(("link", here, nxt), self.config.hop_latency, env, self._on_switch_arrival)
        else:
            dst = env.packet.message.dst
            self._transmit(("ej", dst), self.config.injection_latency, env, self._on_packet_arrival)

    def _on_packet_arrival(self, env: RoutedPacket) -> None:
        self.packets_delivered.value += 1
        msg = env.packet.message
        entry = self._msg_spans.get(id(msg))
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                self.sim.spans.end(entry[0])
                del self._msg_spans[id(msg)]
        # The receiver's pipeline runs before its handler, as on every fabric.
        delivery = Delivery(
            msg,
            arrival_time=self.sim.now,
            hops=len(env.route),
            path_index=env.path_index,
            packet=env.packet,
        )
        self.sim.post(self._pipeline_ns[msg.dst], self._deliver, msg.dst, delivery)


def run_gen(sim: Simulator, gen, name: str = "test"):
    """Drive one generator to completion; returns its value."""
    proc = SimProcess(sim, gen, name)
    sim.run()
    assert proc.finished, f"process {name} deadlocked"
    return proc.result


def run_gens(sim: Simulator, *gens):
    """Drive several generators concurrently; returns their results."""
    procs = [spawn(sim, g, f"test{i}") for i, g in enumerate(gens)]
    sim.run()
    for p in procs:
        assert p.finished, f"process {p.name} deadlocked"
    return [p.result for p in procs]
