"""The packet-fidelity fabric.

The packet fabric fragments messages into MTU packets and source-routes
each packet independently.  Under adaptive routing each packet may take
a different candidate path, producing genuine out-of-order arrival —
the phenomenon that breaks RDMA last-byte polling (paper §II, §IV-D).

It runs on :class:`~repro.network.fabric.BaseFabric`'s channel tables:
routes are the cached per-pair channel tuples, every hop reads and
writes the shared ``free_at`` horizons and ``channel_bytes`` counters,
and two per-channel tables of its own hold the cable's propagation
latency and the ``fabric.packets_forwarded`` counter of the switch that
transmits onto it.  A switch is an output-queued crossbar: contention
sits in the serializing output channels, and the crossbar adds a
traversal delay at ``crossbar_factor x link_bw`` (1.5x per the paper)
plus a fixed pipeline latency, never becoming the bottleneck.

Sending is vectorized: per-packet state lives in struct-of-arrays slot
arrays, and packets due to advance at the same simulated instant are
grouped into *one* engine event per link-timestep (``_advance_batch``)
instead of two events per hop per packet.  The per-packet event chain
this replaced (one engine event per wire arrival and one per crossbar
traversal) lives on as ``ReferencePacketFabric`` in the test helpers:
the fabric conformance suite
(``tests/properties/test_fabric_determinism.py``) asserts that delivery
bytes, timing, ``fabric.*`` metrics and span streams are identical
between the two.

Used at small scale (validation, microbenchmarks, integrity tests);
the flow fabric covers the 8,192-node motif runs.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.engine import Simulator
from ..sim.event import PRIORITY_HIGH
from .config import NetworkConfig
from .fabric import BaseFabric
from .message import Delivery, Message, PACKET_HEADER_BYTES
from .routing import RoutingMode
from .topology.base import Topology


class PacketFabric(BaseFabric):
    """Packet-granularity fabric: per-packet routes over the shared channel tables."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        name: str = "pktfabric",
    ) -> None:
        super().__init__(sim, topology, config, name)
        cfg = self.config
        n = topology.n_nodes
        forwarded = [
            sim.stats.counter("fabric.packets_forwarded", f"switch{i}")
            for i in range(topology.n_switches)
        ]
        #: per-channel cable propagation latency (the switch pipeline is
        #: charged separately, with the crossbar traversal).
        n_links = self.n_channels - self._link_base
        self._wire_latency = [cfg.injection_latency] * (2 * n) + [cfg.hop_latency] * n_links
        #: per-channel ``fabric.packets_forwarded`` counter of the switch
        #: transmitting onto it (None for injection: the NIC transmits).
        self._forwarder: list = [None] * self.n_channels
        for node in range(n):
            self._forwarder[self.ejection_channel(node)] = forwarded[topology.node_switch(node)]
        for (u, v), ch in self._link_index.items():
            self._forwarder[ch] = forwarded[u]
        self.packets_delivered = self.stat("fabric.packets_delivered")
        #: open per-message flight spans: id(msg) -> [span, packets_left]
        self._msg_spans: dict[int, list] = {}

        # --- in-flight packet state (struct-of-arrays) ---
        # One slot per in-flight packet; slots are recycled through
        # ``_fp_free``.  A packet's route is its channel tuple: the
        # injection channel, then one channel per switch it crosses.
        self._fp_pkt: list = []            # Packet per slot
        self._fp_chans: list = []          # per-slot route channel tuple
        self._fp_hop: list = []            # index of the next channel to transmit on
        self._fp_wire: list = []           # wire bytes (payload + header)
        self._fp_dsw: list = []            # crossbar delay for this wire size
        self._fp_pidx: list = []           # chosen candidate index
        self._fp_free: list = []           # recycled slot indices
        #: packets due to advance at the same instant share one engine
        #: event: time -> [slot, ...] (one list per pending batch).
        self._fwd_due: dict[float, list] = {}
        self._del_due: dict[float, list] = {}

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
        routes = self._pair_routes(src, dst, mode)
        msg = self._mk_message(src, dst, size, header, data)
        sim = self.sim
        now = sim.now
        cfg = self.config
        sw_lat = cfg.switch_latency
        xbar_bw = cfg.crossbar_bw
        inv_bw = self._inv_link_bw
        select = self._select_route
        inj = self.injection_channel(src)
        inj_lat = self._wire_latency[inj]
        free = self.free_at
        bytes_acc = self.channel_bytes

        pkts = self._fp_pkt
        chans_arr = self._fp_chans
        hops_arr = self._fp_hop
        wire_arr = self._fp_wire
        dsw_arr = self._fp_dsw
        pidx_arr = self._fp_pidx
        free_slots = self._fp_free
        due = self._fwd_due

        n_pkts = 0
        for pkt in msg.fragment():
            chans, _hops, pidx = select(routes, mode, False)
            w = pkt.size + PACKET_HEADER_BYTES
            start = free[inj]
            if now > start:
                start = now
            tail = start + w * inv_bw
            free[inj] = tail
            bytes_acc[inj] += w
            dsw = sw_lat + w / xbar_bw
            if free_slots:
                slot = free_slots.pop()
                pkts[slot] = pkt
                chans_arr[slot] = chans
                hops_arr[slot] = 1
                wire_arr[slot] = w
                dsw_arr[slot] = dsw
                pidx_arr[slot] = pidx
            else:
                slot = len(pkts)
                pkts.append(pkt)
                chans_arr.append(chans)
                hops_arr.append(1)
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

    def _advance_batch(self, when: float) -> None:
        """Run every forward due at *when*: one engine event for the
        whole link-timestep batch.

        Each slot performs one switch forward plus the downstream
        transmit: bump the forwarding switch's counter, serialize onto
        the next channel, then either enqueue the next crossbar
        traversal or hand the packet to the delivery batch at its
        ejection-arrival time.
        """
        slots = self._fwd_due.pop(when)
        post_at = self.sim.post_at
        chans_arr = self._fp_chans
        hops_arr = self._fp_hop
        wire_arr = self._fp_wire
        dsw_arr = self._fp_dsw
        free = self.free_at
        bytes_acc = self.channel_bytes
        lat = self._wire_latency
        forwarder = self._forwarder
        inv_bw = self._inv_link_bw
        fwd_due = self._fwd_due
        del_due = self._del_due
        for slot in slots:
            chans = chans_arr[slot]
            hop = hops_arr[slot]
            ch = chans[hop]
            forwarder[ch].value += 1
            w = wire_arr[slot]
            start = free[ch]
            if when > start:
                start = when
            tail = start + w * inv_bw
            free[ch] = tail
            bytes_acc[ch] += w
            arrive = tail + lat[ch]
            hop += 1
            if hop < len(chans):
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
        """Hand over every packet whose ejection completes at *when*.

        Per slot: count the packet, close the message's flight span
        with its last packet, build the Delivery, recycle the slot
        and post the packet's :meth:`_deliver` at ``when`` plus the
        destination's pipeline delay, in slot order.  Runs at
        PRIORITY_HIGH like any cable arrival, so arrivals at T are
        visible to normal-priority work at T.
        """
        slots = self._del_due.pop(when)
        pkts = self._fp_pkt
        chans_arr = self._fp_chans
        pidx_arr = self._fp_pidx
        spans = self.sim.spans
        msg_spans = self._msg_spans
        free_slots = self._fp_free
        post_at = self.sim.post_at
        deliver = self._deliver
        pipeline_ns = self._pipeline_ns
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
            delivery = Delivery(msg, when, len(chans_arr[slot]) - 1, pidx_arr[slot], pkt)
            pkts[slot] = None
            chans_arr[slot] = None
            free_slots.append(slot)
            dst = msg.dst
            post_at(when + pipeline_ns[dst], deliver, dst, delivery)
