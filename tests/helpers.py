"""Importable helpers shared across test modules."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.network.message import Delivery, DeliveryInfo, Message, Packet
from repro.network.routing import PathChoice, RoutingMode, choose_path
from repro.network.switch import PacketFabric, Switch
from repro.sim import SimProcess, Simulator, spawn
from repro.sim.engine import SimulationError
from repro.sim.event import Event, PRIORITY_NORMAL
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


def _switch_on_packet(sw: Switch, env: RoutedPacket) -> None:
    """Receive a packet, traverse the crossbar, forward it."""
    xbar = env.packet.wire_size / sw.config.crossbar_bw
    sw.sim.post(sw.config.switch_latency + xbar, _switch_forward, sw, env)


def _switch_forward(sw: Switch, env: RoutedPacket) -> None:
    sw.packets_forwarded.value += 1
    env.hop += 1
    if env.hop < len(env.route):
        nxt = env.route[env.hop]
        sw.to_switch[nxt].send(env, env.packet.wire_size)
    else:
        dst = env.packet.message.dst
        sw.to_node[dst].send(env, env.packet.wire_size)


class ReferencePacketFabric(PacketFabric):
    """The per-packet event chain the vectorized fabric replaced, kept as an oracle.

    Every packet is a :class:`RoutedPacket` hopping through the real
    ``Switch`` ports over real ``SerializingLink`` cables: one engine
    event per wire arrival and one per crossbar traversal.  The fabric
    conformance suite asserts :class:`PacketFabric` matches it on every
    observable (delivery stream, timing, ``fabric.*`` metrics, spans);
    only ``events_executed`` differs.  Like :class:`ReferenceSimulator`,
    keep it simple and obviously correct rather than fast.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        for sw in self.switches:
            for port in sw.ports.values():
                port.set_handler(partial(_switch_on_packet, sw))
        for ep in self.endpoints:
            ep.inj_port.set_handler(partial(self._on_packet_arrival, ep.node_id))

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
            choice = self.select_path(src, dst, mode)
            env = RoutedPacket(packet=pkt, route=choice.path, hop=0, path_index=choice.index)
            self.endpoints[src].inj_port.send(env, pkt.wire_size)
            n_pkts += 1
        spans = self.sim.spans
        if spans.active and spans.wants("fabric"):
            sp = spans.begin("fabric", "msg_flight", src=src, dst=dst, size=size, packets=n_pkts)
            if sp is not None:
                self._msg_spans[id(msg)] = [sp, n_pkts]
        return msg

    def select_path(self, src: int, dst: int, mode: RoutingMode) -> PathChoice:
        """Load-aware path choice, scored from cached channel handles.

        UGAL scoring over the fabric's cached scorer handles (queued
        backlog on the injection cable and every switch link, plus a hop
        penalty), the near-best tie-break of ``choose_path``, the fabric's
        route rng stream, and fault-window candidate filtering.
        """
        entry = self._scored_paths.get((src, dst))
        if entry is None:
            entry = self._build_scorers(src, dst)
        static_path, cands, scorers, allowed = entry
        if mode is RoutingMode.STATIC:
            return PathChoice(list(static_path), 0)
        now = self.sim.now
        remap = None
        use_cands = cands
        use_scorers = scorers
        if len(allowed) != len(cands):
            remap = allowed
            use_cands = [cands[i] for i in allowed]
            use_scorers = [scorers[i] for i in allowed]
        scores = []
        for chans, base in use_scorers:
            for free_at, pid in chans:
                t = free_at[pid]
                if t > now:
                    base += t - now
            scores.append(base)
        ch = choose_path(
            use_cands,
            mode,
            rng_pick=lambda n: self.sim.rng.choice(f"{self.name}.route", n),
            scores=scores,
        )
        if remap is not None:
            return PathChoice(ch.path, remap[ch.index])
        return ch

    def _on_packet_arrival(self, node_id: int, env: RoutedPacket) -> None:
        self.packets_delivered.value += 1
        msg = env.packet.message
        entry = self._msg_spans.get(id(msg))
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                self.sim.spans.end(entry[0])
                del self._msg_spans[id(msg)]
        info = DeliveryInfo(
            send_time=msg.send_time,
            arrival_time=self.sim.now,
            hops=len(env.route),
            path_index=env.path_index,
        )
        self._deliver(node_id, Delivery(msg, info, packet=env.packet))


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
