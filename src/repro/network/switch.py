"""Switch component and the packet-fidelity fabric.

The packet fabric instantiates a real :class:`Switch` per topology
switch, wires :class:`~repro.sim.link.SerializingLink` cables between
them, fragments messages into MTU packets and source-routes each packet
independently.  Under adaptive routing each packet may take a different
candidate path, producing genuine out-of-order arrival — the phenomenon
that breaks RDMA last-byte polling (paper §II, §IV-D).

Sending is vectorized: per-packet state lives in struct-of-arrays slot
arrays on the fabric, routes are precompiled into per-hop step records,
and packets due to advance at the same simulated instant are grouped
into *one* engine event per link-timestep (``_advance_batch``) instead
of two events per hop per packet.  The :class:`Switch` components and
``SerializingLink`` cables hold the state that arithmetic reads and
writes — the links' ``_free_at`` horizons and byte counters, and each
switch's ``fabric.packets_forwarded`` counter — but no packet ever hops
through their ports.  The per-packet event chain this replaced (every
packet a routed envelope hopping through real ports, one engine event
per wire arrival and one per crossbar traversal) lives on as
``ReferencePacketFabric`` in the test helpers: the fabric conformance
suite (``tests/properties/test_fabric_determinism.py``) asserts that
delivery bytes, timing, ``fabric.*`` metrics and span streams are
identical between the two.

Used at small scale (validation, microbenchmarks, integrity tests);
the flow fabric covers the 8,192-node motif runs.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.event import PRIORITY_HIGH
from ..sim.link import SerializingLink
from .config import NetworkConfig
from .fabric import BaseFabric
from .message import Delivery, DeliveryInfo, Message, Packet, PACKET_HEADER_BYTES
from .routing import RoutingMode
from .topology.base import Topology


class Switch(Component):
    """An output-queued crossbar switch.

    Contention is modelled by the serializing output links; the
    crossbar adds a traversal delay at ``crossbar_factor x link_bw``
    (1.5x per the paper) plus a fixed pipeline latency, and is never the
    bottleneck — matching the paper's setup.  The packet fabric applies
    that timing itself; the switch owns the output ports and counts the
    packets it forwards.
    """

    def __init__(self, sim: Simulator, switch_id: int, config: NetworkConfig) -> None:
        super().__init__(sim, f"switch{switch_id}")
        self.switch_id = switch_id
        self.config = config
        self.to_switch: dict[int, Any] = {}  # neighbor switch id -> Port
        self.to_node: dict[int, Any] = {}  # node id -> Port
        self.packets_forwarded = self.stat("fabric.packets_forwarded")

    def make_switch_port(self, neighbor: int):
        """Create the output port cabled towards *neighbor* switch."""
        port = self.add_port(f"sw{neighbor}")
        self.to_switch[neighbor] = port
        return port

    def make_node_port(self, node: int):
        """Create the ejection port cabled to endpoint *node*."""
        port = self.add_port(f"node{node}")
        self.to_node[node] = port
        return port


class _Endpoint(Component):
    """NIC-side cable terminus for one node in the packet fabric."""

    def __init__(self, sim: Simulator, node_id: int) -> None:
        super().__init__(sim, f"ep{node_id}")
        self.node_id = node_id
        self.inj_port = self.add_port("inj")


class PacketFabric(BaseFabric):
    """Packet-granularity fabric built from real switch components."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        name: str = "pktfabric",
    ) -> None:
        super().__init__(sim, topology, config, name)
        cfg = self.config
        self.switches = [Switch(sim, i, cfg) for i in range(topology.n_switches)]
        # Switch-to-switch cables (one SerializingLink per undirected pair;
        # SerializingLink is full-duplex with independent directions).
        done: set[tuple[int, int]] = set()
        for (u, v) in topology.links():
            key = (min(u, v), max(u, v))
            if key in done:
                continue
            done.add(key)
            pa = self.switches[u].make_switch_port(v)
            pb = self.switches[v].make_switch_port(u)
            SerializingLink(sim, pa, pb, cfg.hop_latency, cfg.link_bw)
        # Node cables.
        self.endpoints = []
        for node in range(topology.n_nodes):
            sw = self.switches[topology.node_switch(node)]
            ep = _Endpoint(sim, node)
            sp = sw.make_node_port(node)
            SerializingLink(sim, ep.inj_port, sp, cfg.injection_latency, cfg.link_bw)
            self.endpoints.append(ep)
        self.packets_delivered = self.stat("fabric.packets_delivered")
        #: open per-message flight spans: id(msg) -> [span, packets_left]
        self._msg_spans: dict[int, list] = {}
        #: (src, dst) -> (static_path, cands, scorers, allowed); scorers
        #: hold the serializing-link free_at dicts along each candidate
        #: so per-packet adaptive scoring skips the port/dict traversal.
        self._scored_paths: dict[tuple[int, int], tuple] = {}

        # --- in-flight packet state (struct-of-arrays) ---
        # One slot per in-flight packet; slots are recycled through
        # ``_fp_free``.  A *step* is one transmission performed by the
        # switch at route[i]: ``(forwarded_counter, link_free_at_dict,
        # port_key, inv_bw, latency, link)`` — everything
        # ``_advance_batch`` needs without touching a Port or Component.
        self._fp_pkt: list = []            # Packet per slot
        self._fp_steps: list = []          # per-slot step tuple (len == hops)
        self._fp_hop: list = []            # index of the next step to run
        self._fp_wire: list = []           # wire bytes (payload + header)
        self._fp_dsw: list = []            # crossbar delay for this wire size
        self._fp_pidx: list = []           # chosen candidate index
        self._fp_free: list = []           # recycled slot indices
        #: packets due to advance at the same instant share one engine
        #: event: time -> [slot, ...] (one list per pending batch).
        self._fwd_due: dict[float, list] = {}
        self._del_due: dict[float, list] = {}
        #: (src, dst) -> (static_steps, cand_steps): routes precompiled
        #: to step records; invalidated with the other route caches.
        self._fast_routes: dict[tuple[int, int], tuple] = {}
        #: per-node injection handles: (free_at, port_key, inv_bw,
        #: latency, link) — the injection half of a step record.
        self._inj_fast = []
        for ep in self.endpoints:
            link = ep.inj_port.link
            self._inj_fast.append(
                (link._free_at, id(ep.inj_port), link._inv_bw, link.latency, link)
            )

    def _invalidate_route_caches(self) -> None:
        """Fault transition: also drop the per-packet scorer and the
        precompiled fast-path step caches (their ``allowed`` sets and
        link handles bake in the route state at build time)."""
        super()._invalidate_route_caches()
        self._scored_paths.clear()
        self._fast_routes.clear()

    # --- sending -----------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        size: int,
        header: Any = None,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
    ) -> Message:
        """Fragment into MTU packets, source-routing each independently.

        Inlines the injection transmit and enqueues each packet's first
        crossbar traversal into a shared batch.  Per packet this does
        exactly the per-hop arithmetic — ``start = max(free_at, now);
        tail = start + wire*inv_bw; first_forward = (tail + latency) +
        (switch_latency + wire/crossbar_bw)`` — without an
        endpoint/link/switch event chain.  Path selection happens
        *before* the injection horizon is bumped, packet by packet, so
        adaptive scoring and rng draws follow the per-packet order.
        """
        mode = mode or self.config.routing
        msg = self._mk_message(src, dst, size, header, data)
        sim = self.sim
        now = sim.now
        cfg = self.config
        sw_lat = cfg.switch_latency
        xbar_bw = cfg.crossbar_bw
        inj_free, inj_key, inj_inv, inj_lat, inj_link = self._inj_fast[src]
        routes = self._fast_routes.get((src, dst))
        if routes is None:
            routes = self._build_fast_routes(src, dst)
        static_steps, cand_steps = routes
        if mode is RoutingMode.STATIC:
            fixed_steps = static_steps
        elif len(cand_steps) == 1:
            # Single candidate: choose_path shortcuts without an rng
            # draw; mirror that exactly.
            fixed_steps = cand_steps[0]
        else:
            fixed_steps = None
            entry = self._scored_paths.get((src, dst))
            if entry is None:
                entry = self._build_scorers(src, dst)
            _static, cands, scorers, allowed = entry
            if len(allowed) != len(cands):
                use_scorers = [scorers[i] for i in allowed]
                remap = allowed
            else:
                use_scorers = scorers
                remap = None
            route_rng = self._route_rng

        pkts = self._fp_pkt
        steps_arr = self._fp_steps
        hops_arr = self._fp_hop
        wire_arr = self._fp_wire
        dsw_arr = self._fp_dsw
        pidx_arr = self._fp_pidx
        free_slots = self._fp_free
        due = self._fwd_due

        n_pkts = 0
        for pkt in msg.fragment():
            if fixed_steps is not None:
                steps = fixed_steps
                pidx = 0
            else:
                # Inline adaptive selection: the UGAL scoring math,
                # near-best tie-break and rng draw discipline of
                # choose_path (choice over one candidate never draws),
                # minus the PathChoice/path-copy allocations — only
                # the index is needed here.
                scores = []
                for chans, base in use_scorers:
                    for free_at, pid in chans:
                        t = free_at[pid]
                        if t > now:
                            base += t - now
                    scores.append(base)
                best = min(scores)
                slack = best * 0.05 if best * 0.05 > 1.0 else 1.0
                near = [i for i, sc in enumerate(scores) if sc <= best + slack]
                if len(near) == 1:
                    pidx = near[0]
                else:
                    pidx = near[route_rng.integers(0, len(near))]
                if remap is not None:
                    pidx = remap[pidx]
                steps = cand_steps[pidx]
            w = pkt.size + PACKET_HEADER_BYTES
            # Injection transmit (same math as SerializingLink.transmit).
            start = inj_free[inj_key]
            if now > start:
                start = now
            tail = start + w * inj_inv
            inj_free[inj_key] = tail
            inj_link.bytes_carried += w
            dsw = sw_lat + w / xbar_bw
            if free_slots:
                slot = free_slots.pop()
                pkts[slot] = pkt
                steps_arr[slot] = steps
                hops_arr[slot] = 0
                wire_arr[slot] = w
                dsw_arr[slot] = dsw
                pidx_arr[slot] = pidx
            else:
                slot = len(pkts)
                pkts.append(pkt)
                steps_arr.append(steps)
                hops_arr.append(0)
                wire_arr.append(w)
                dsw_arr.append(dsw)
                pidx_arr.append(pidx)
            t_fwd = (tail + inj_lat) + dsw
            batch = due.get(t_fwd)
            if batch is None:
                due[t_fwd] = [slot]
                sim.post_at(t_fwd, self._advance_batch, t_fwd)
            else:
                batch.append(slot)
            n_pkts += 1
        spans = sim.spans
        if spans.active and spans.wants("fabric"):
            sp = spans.begin("fabric", "msg_flight", src=src, dst=dst, size=size, packets=n_pkts)
            if sp is not None:
                self._msg_spans[id(msg)] = [sp, n_pkts]
        return msg

    def _build_fast_routes(self, src: int, dst: int) -> tuple:
        """Precompile every candidate route into per-hop step records."""
        static_path, cands, _allowed = self._pair_paths(src, dst)
        entry = (
            self._compile_steps(static_path, dst),
            tuple(self._compile_steps(p, dst) for p in cands),
        )
        self._fast_routes[(src, dst)] = entry
        return entry

    def _compile_steps(self, path: list, dst: int) -> tuple:
        """Step records for one switch path: route[i]'s transmission."""
        steps = []
        last = len(path) - 1
        for i, u in enumerate(path):
            sw = self.switches[u]
            port = sw.to_switch[path[i + 1]] if i < last else sw.to_node[dst]
            link = port.link
            steps.append(
                (sw.packets_forwarded, link._free_at, id(port), link._inv_bw, link.latency, link)
            )
        return tuple(steps)

    def _advance_batch(self, when: float) -> None:
        """Run every forward due at *when*: one engine event for the
        whole link-timestep batch.

        Each slot performs one switch forward plus the downstream link
        transmit: bump the forwarding switch's counter, serialize onto
        the next cable, then either enqueue the next crossbar traversal
        or hand the packet to the delivery batch at its ejection-arrival
        time.
        """
        slots = self._fwd_due.pop(when)
        sim = self.sim
        post_at = sim.post_at
        steps_arr = self._fp_steps
        hops_arr = self._fp_hop
        wire_arr = self._fp_wire
        dsw_arr = self._fp_dsw
        fwd_due = self._fwd_due
        del_due = self._del_due
        for slot in slots:
            steps = steps_arr[slot]
            hop = hops_arr[slot]
            forwarded, free, key, inv_bw, lat, link = steps[hop]
            forwarded.value += 1
            w = wire_arr[slot]
            start = free[key]
            if when > start:
                start = when
            tail = start + w * inv_bw
            free[key] = tail
            link.bytes_carried += w
            arrive = tail + lat
            hop += 1
            if hop < len(steps):
                hops_arr[slot] = hop
                t_fwd = arrive + dsw_arr[slot]
                batch = fwd_due.get(t_fwd)
                if batch is None:
                    fwd_due[t_fwd] = [slot]
                    post_at(t_fwd, self._advance_batch, t_fwd)
                else:
                    batch.append(slot)
            else:
                batch = del_due.get(arrive)
                if batch is None:
                    del_due[arrive] = [slot]
                    post_at(arrive, self._deliver_batch, arrive, priority=PRIORITY_HIGH)
                else:
                    batch.append(slot)

    def _deliver_batch(self, when: float) -> None:
        """Deliver every packet whose ejection completes at *when*.

        Per slot: count the packet, close the message's flight span
        with its last packet, build the DeliveryInfo, and recycle the
        slot.  Runs at PRIORITY_HIGH like any serializing-link arrival,
        so arrivals at T are visible to normal-priority work at T.
        """
        slots = self._del_due.pop(when)
        pkts = self._fp_pkt
        steps_arr = self._fp_steps
        pidx_arr = self._fp_pidx
        spans = self.sim.spans
        msg_spans = self._msg_spans
        free_slots = self._fp_free
        deliver = self._deliver
        for slot in slots:
            pkt = pkts[slot]
            msg = pkt.message
            self.packets_delivered.value += 1
            entry = msg_spans.get(id(msg))
            if entry is not None:
                entry[1] -= 1
                if entry[1] <= 0:
                    spans.end(entry[0])
                    del msg_spans[id(msg)]
            info = DeliveryInfo(
                send_time=msg.send_time,
                arrival_time=when,
                hops=len(steps_arr[slot]),
                path_index=pidx_arr[slot],
            )
            pkts[slot] = None
            steps_arr[slot] = None
            free_slots.append(slot)
            deliver(msg.dst, Delivery(msg, info, packet=pkt))

    # --- routing -----------------------------------------------------------------

    def _build_scorers(self, src: int, dst: int) -> tuple:
        """Build and cache the per-pair scorer entry: candidate paths
        plus the serializing-link ``_free_at`` handles along each one,
        so per-packet adaptive scoring is dict lookups only."""
        static_path, cands, allowed = self._pair_paths(src, dst)
        ep = self.endpoints[src]
        inj = (ep.inj_port.link._free_at, id(ep.inj_port))
        scorers = []
        for path in cands:
            chans = [inj]
            for u, v in zip(path, path[1:]):
                port = self.switches[u].to_switch[v]
                chans.append((port.link._free_at, id(port)))
            scorers.append((chans, len(path) * self.config.hop_latency))
        entry = (static_path, cands, scorers, allowed)
        self._scored_paths[(src, dst)] = entry
        return entry

    def injection_busy_until(self, node: int) -> float:
        ep = self.endpoints[node]
        return ep.inj_port.link.busy_until(ep.inj_port)
