"""Fabric base: channel bookkeeping shared by both fidelities.

A *channel* is one direction of one cable: node->switch (injection),
switch->switch, or switch->node (ejection).  Both fidelities share one
channel index space and its per-channel tables: the ``free_at``
horizons, the ``channel_bytes`` counters and the cached per-pair
channel routes (:meth:`BaseFabric._pair_routes`).  The flow fabric
reserves channels per message, the packet fabric per packet; both pick
adaptive routes with :meth:`BaseFabric._select_route`.

Both fabrics present the same interface to NICs::

    fabric.attach(node_id, handler, pipeline_ns)   # handler(Delivery)
    fabric.send(src, dst, size, header=..., data=..., mode=...)

Each arrival costs the receiver one engine event: :meth:`BaseFabric._deliver`
runs ``pipeline_ns`` after the wire arrival (the receiving NIC's
per-arrival pipeline time) and applies the fault filter, takes the
latency sample and calls the handler.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.component import Component
from ..sim.engine import Simulator
from .config import NetworkConfig
from .message import Delivery, Message, MTU, PACKET_HEADER_BYTES, _msg_ids
from .routing import RoutingMode
from .topology.base import Topology

DeliveryHandler = Callable[[Delivery], None]

_INF = float("inf")


class BaseFabric(Component):
    """Shared structure: channel tables, path selection, endpoint handlers."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        name: str = "fabric",
    ) -> None:
        super().__init__(sim, name)
        self.topology = topology
        self.config = config or NetworkConfig()
        self._handlers: dict[int, DeliveryHandler] = {}

        # Channel index space: [injection per node][ejection per node][switch links]
        n = topology.n_nodes
        #: per-node delay from wire arrival to the handler (:meth:`attach`).
        self._pipeline_ns = [0.0] * n
        self._inj_base = 0
        self._eje_base = n
        self._link_base = 2 * n
        self._link_index: dict[tuple[int, int], int] = {}
        idx = self._link_base
        for (u, v) in topology.links():
            self._link_index[(u, v)] = idx
            idx += 1
        self.n_channels = idx
        self.free_at = [0.0] * self.n_channels
        self.channel_bytes = [0] * self.n_channels
        #: per-channel crossing latency, precomputed (hot path).
        self._chan_latency = [self.channel_latency(ch) for ch in range(idx)]
        #: (src, dst) -> ((static_chans, static_hops),
        #: ((chans, penalty, hops), ...) or None, allowed or None) —
        #: topology routes are immutable, so cache them per pair
        #: (:meth:`_pair_routes`).
        self._route_cache: dict[tuple[int, int], tuple] = {}
        #: fault-state marks pushed by the fault injector: element ->
        #: outstanding down-window count.  Counters (not booleans) so
        #: overlapping windows on the same element compose; an element
        #: is avoided while its count is positive.
        self._down_switches: dict[int, int] = {}
        self._down_links: dict[frozenset, int] = {}
        self.messages_sent = self.stat("fabric.messages_sent")
        self.bytes_sent = self.stat("fabric.bytes_sent")
        #: Optional fault hook: called with each Delivery just before it
        #: reaches the destination handler; returning True drops it.
        self.fault_filter = None
        self.deliveries_dropped = self.stat("fabric.deliveries_dropped")
        #: canonical latency summary, shared across fabrics in one sim.
        self._lat_summary = sim.stats.summary("fabric.msg_latency_ns")
        #: adaptive-routing stream, resolved once: the same draws as
        #: rng.choice(name, n) each send, since a stream is keyed by its
        #: name alone and a single candidate never reaches it.
        self._route_rng = sim.rng.stream(f"{self.name}.route")
        #: reciprocal so the serialization divide becomes a multiply.
        self._inv_link_bw = 1.0 / self.config.link_bw

    # --- endpoints ---------------------------------------------------------------

    def attach(self, node_id: int, handler: DeliveryHandler, pipeline_ns: float = 0.0) -> None:
        """Register *handler* to receive Deliveries addressed to *node_id*.

        The handler runs *pipeline_ns* after each wire arrival: a NIC
        passes its per-arrival pipeline time, so parsing an arrival
        costs no engine event of its own.
        """
        self.topology.check_node(node_id)
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already attached")
        self._handlers[node_id] = handler
        self._pipeline_ns[node_id] = pipeline_ns

    def _deliver(self, node_id: int, delivery: Delivery) -> None:
        """The one receiver event of an arrival, at ``arrival_time +
        pipeline_ns``: fault filter, latency sample, handler."""
        if self.fault_filter is not None and self.fault_filter(delivery):
            self.deliveries_dropped.value += 1
            return
        self._lat_summary.add(delivery.arrival_time - delivery.message.send_time)
        handler = self._handlers.get(node_id)
        if handler is None:
            raise RuntimeError(f"no handler attached for node {node_id}")
        handler(delivery)

    # --- channels ----------------------------------------------------------------

    def injection_channel(self, node: int) -> int:
        """Channel index of *node*'s NIC->switch cable."""
        return self._inj_base + node

    def ejection_channel(self, node: int) -> int:
        """Channel index of the switch->NIC cable into *node*."""
        return self._eje_base + node

    def link_channel(self, u: int, v: int) -> int:
        """Channel index of the directed switch link u->v."""
        return self._link_index[(u, v)]

    def channels_for(self, path_switches: list[int], src: int, dst: int) -> list[int]:
        """Full channel sequence for a switch path between two nodes."""
        chans = [self.injection_channel(src)]
        for u, v in zip(path_switches, path_switches[1:]):
            chans.append(self.link_channel(u, v))
        chans.append(self.ejection_channel(dst))
        return chans

    def injection_busy_until(self, node: int) -> float:
        """When the node's injection channel finishes its queued traffic."""
        return self.free_at[self.injection_channel(node)]

    def channel_label(self, ch: int) -> str:
        """Human-readable name for a channel index."""
        if ch < self._eje_base:
            return f"inject[node{ch - self._inj_base}]"
        if ch < self._link_base:
            return f"eject[node{ch - self._eje_base}]"
        for (u, v), idx in self._link_index.items():
            if idx == ch:
                return f"link[sw{u}->sw{v}]"
        return f"chan[{ch}]"

    def hottest_channels(self, k: int = 10) -> list[tuple[str, int]]:
        """Top-*k* channels by bytes carried — congestion diagnostics
        for experiments (e.g. spotting the D-mod-k core hotspot)."""
        ranked = sorted(
            range(self.n_channels), key=lambda ch: self.channel_bytes[ch], reverse=True
        )[:k]
        return [(self.channel_label(ch), self.channel_bytes[ch]) for ch in ranked]

    def channel_latency(self, ch: int) -> float:
        """Latency charged as traffic crosses into this channel.

        Injection: NIC-to-switch cable plus the first switch's pipeline;
        switch links: cable plus the downstream switch's pipeline;
        ejection: switch-to-NIC cable only.  The packet fabric charges
        the cable and each switch's pipeline as separate steps instead.
        """
        if ch < self._eje_base:
            return self.config.injection_latency + self.config.switch_latency
        if ch < self._link_base:
            return self.config.injection_latency
        return self.config.hop_latency + self.config.switch_latency

    # --- fault-aware route state -------------------------------------------------

    def set_switch_state(self, switch_id: int, up: bool) -> None:
        """Mark a switch down (``up=False``) or back up for routing.

        Called by the fault injector at window boundaries.  Adaptive
        selection avoids candidates crossing a down element (static
        routing stays oblivious, matching the drop-window semantics:
        a static route through a dead element is simply dropped).
        Every transition invalidates the route cache — its
        allowed-candidate sets would otherwise go stale.
        """
        counts = self._down_switches
        if up:
            n = counts.get(switch_id, 0) - 1
            if n <= 0:
                counts.pop(switch_id, None)
            else:
                counts[switch_id] = n
        else:
            counts[switch_id] = counts.get(switch_id, 0) + 1
        self._route_cache.clear()

    def set_link_state(self, u: int, v: int, up: bool) -> None:
        """Mark the switch link u<->v down or back up for routing."""
        edge = frozenset((u, v))
        counts = self._down_links
        if up:
            n = counts.get(edge, 0) - 1
            if n <= 0:
                counts.pop(edge, None)
            else:
                counts[edge] = n
        else:
            counts[edge] = counts.get(edge, 0) + 1
        self._route_cache.clear()

    def _path_blocked(self, path_switches: list[int]) -> bool:
        """Does *path_switches* traverse a currently-down element?"""
        down_sw = self._down_switches
        if down_sw:
            for s in path_switches:
                if s in down_sw:
                    return True
        down_ln = self._down_links
        if down_ln:
            for e in zip(path_switches, path_switches[1:]):
                if frozenset(e) in down_ln:
                    return True
        return False

    def _allowed_candidates(self, paths) -> tuple:
        """Indices of candidates not crossing a down element.

        Falls back to *all* candidates when every path is blocked
        (no live alternative exists — traffic then takes its normal
        route and the drop window decides its fate).
        """
        if not self._down_switches and not self._down_links:
            return tuple(range(len(paths)))
        allowed = tuple(
            i for i, p in enumerate(paths) if not self._path_blocked(p)
        )
        return allowed or tuple(range(len(paths)))

    # --- routing ----------------------------------------------------------------

    def _pair_routes(self, src: int, dst: int, mode: RoutingMode = RoutingMode.ADAPTIVE) -> tuple:
        """Cached channel routes of a node pair: ``(static, cands, allowed)``.

        ``static`` is ``(chans, hops)`` of the topology's static route,
        built on the pair's first lookup.  The adaptive candidates
        (``((chans, penalty, hops), ...)``) and the indices of those
        crossing no down element are built on its first lookup in a
        mode other than STATIC; until then both are None, so statically
        routed traffic never builds them.  Node ids are checked here,
        on a cache miss: a cached pair is valid.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        topo = self.topology
        if cached is None:
            topo.check_node(src)
            topo.check_node(dst)
            path = topo.static_path(topo.node_switch(src), topo.node_switch(dst))
            cached = ((tuple(self.channels_for(path, src, dst)), len(path)), None, None)
            self._route_cache[key] = cached
        if cached[1] is None and mode is not RoutingMode.STATIC:
            hop = self.config.hop_latency
            paths = topo.candidate_paths(topo.node_switch(src), topo.node_switch(dst))
            cands = tuple(
                (tuple(self.channels_for(p, src, dst)), len(p) * hop, len(p))
                for p in paths
            )
            cached = (cached[0], cands, self._allowed_candidates(paths))
            self._route_cache[key] = cached
        return cached

    def _select_route(self, routes: tuple, mode: RoutingMode, score_ejection: bool) -> tuple:
        """Pick one route of a :meth:`_pair_routes` entry: ``(chans, hops, index)``.

        STATIC takes the topology's static route (index 0), and a lone
        candidate is taken without an rng draw.  ADAPTIVE scores every
        candidate that crosses no down element as its hop penalty plus
        the queued backlog on its channels (UGAL-style: a longer path
        must be idle enough to beat the minimal one), then draws
        uniformly among those within 5 % or 1 ns of the best.  The flow
        fabric scores every channel; the packet fabric leaves the
        ejection channel out (``score_ejection=False``).

        A candidate whose hop penalty alone exceeds the best score so
        far plus its slack is not scored: its score could only be
        higher, and the final best and threshold can only be lower, so
        it is neither the best nor near it.
        """
        (static_chans, static_hops), cands, allowed = routes
        if mode is RoutingMode.STATIC:
            return static_chans, static_hops, 0
        if len(cands) == 1:
            chans, _pen, hops = cands[0]
            return chans, hops, 0
        use = cands if len(allowed) == len(cands) else [cands[i] for i in allowed]
        stop = None if score_ejection else -1
        free = self.free_at
        now = self.sim.now
        scores = []
        best = limit = _INF
        for chans, backlog, _hops in use:
            if backlog > limit:
                scores.append(_INF)
                continue
            for ch in chans[:stop]:
                wait = free[ch] - now
                if wait > 0:
                    backlog += wait
            scores.append(backlog)
            if backlog < best:
                best = backlog
                limit = best + (best * 0.05 if best * 0.05 > 1.0 else 1.0)
        near = [i for i, sc in enumerate(scores) if sc <= limit]
        if len(near) == 1:
            idx = near[0]
        else:
            idx = near[self._route_rng.integers(0, len(near))]
        chans, _pen, hops = use[idx]
        if use is not cands:
            idx = allowed[idx]
        return chans, hops, idx

    # --- sending (implemented by fidelities) ------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        size: int,
        header: Any = None,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
    ) -> Message:
        """Transmit *size* bytes from *src* to *dst* (fidelity-specific)."""
        raise NotImplementedError

    def _mk_message(self, src: int, dst: int, size: int, header: Any, data: bytes) -> Message:
        """Build and count the message of one send (after its route lookup
        has checked both node ids)."""
        msg = Message(src, dst, size, header, data, next(_msg_ids), self.sim.now)
        self.messages_sent.value += 1
        self.bytes_sent.value += size
        return msg


class FlowFabric(BaseFabric):
    """Message-granularity fabric for scale (Figs 7-8 at 8,192 nodes).

    Each message reserves its channels with virtual-cut-through timing:
    the head advances hop by hop waiting for busy channels; each channel
    stays occupied until the message tail has been clocked through it.
    Contention therefore appears at injection, ejection and any shared
    switch link — the effects that dominate the paper's motifs — while
    costing O(hops) work per message instead of O(packets x hops).
    Routes are cached per node pair (topologies are immutable).
    """

    def send(
        self,
        src: int,
        dst: int,
        size: int,
        header: Any = None,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
    ) -> Message:
        """Send a whole message with virtual-cut-through channel reservation.

        One engine event per message: :meth:`_deliver` at the arrival
        time plus the destination's pipeline delay.
        """
        mode = mode or self.config.routing
        routes = self._route_cache.get((src, dst))
        if routes is None or (routes[1] is None and mode is not RoutingMode.STATIC):
            routes = self._pair_routes(src, dst, mode)
        msg = self._mk_message(src, dst, size, header, data)
        chans, hops, idx = self._select_route(routes, mode, True)
        free = self.free_at
        now = msg.send_time
        # msg.wire_size, inlined (two property hops per send add up).
        n_pkts = -(-size // MTU) if size else 1
        wire = size + n_pkts * PACKET_HEADER_BYTES
        ser = wire * self._inv_link_bw
        lat = self._chan_latency
        bytes_acc = self.channel_bytes
        t_head = now
        for ch in chans:
            f = free[ch]
            if f > t_head:
                t_head = f
            t_head += lat[ch]
            free[ch] = t_head + ser
            bytes_acc[ch] += wire
        t_deliver = t_head + ser

        delivery = Delivery(msg, t_deliver, hops, idx)
        sim = self.sim
        sim.post_at(t_deliver + self._pipeline_ns[dst], self._deliver, dst, delivery)
        spans = sim.spans
        if spans.active and spans.wants("fabric"):
            sp = spans.begin("fabric", "msg_flight", src=src, dst=dst, size=size, hops=hops)
            if sp is not None:
                # The flight ends at the wire arrival, not at pipeline exit.
                sim.post_at(t_deliver, spans.end, sp)
        return msg
