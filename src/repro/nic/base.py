"""Base NIC: fabric attachment, op timing, delivery dispatch.

Concrete NICs (:mod:`repro.nic.rdma`, :mod:`repro.nic.rvma`) register a
handler per header type.  The base class charges the common hardware
costs — NIC packet processing and PCIe/DMA traversals — so both models
pay identical prices for identical work, which is the paper's
methodology ("identical timing for non-RDMA related traffic", §V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..memory.memory import NodeMemory
from ..memory.pcie import PAPER_SIM, PcieBus, PcieGen
from ..network.fabric import BaseFabric
from ..network.message import Delivery, Message
from ..network.routing import RoutingMode
from ..reliability.detector import FailureDetector, PeerFailed
from ..reliability.transport import ReliabilityConfig, ReliableTransport
from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.process import Future
from .headers import CONTROL_BYTES


@dataclass
class NicConfig:
    """Hardware cost model shared by the RDMA and RVMA NICs."""

    #: PCIe generation for host<->NIC traversals.
    pcie: PcieGen = PAPER_SIM
    #: NIC pipeline time to parse/act on one arriving message/packet (ns).
    nic_proc: float = 25.0
    #: Host doorbell -> NIC descriptor fetch -> first byte on the wire (ns),
    #: *excluding* the PCIe traversal itself (added from ``pcie``).
    issue_overhead: float = 40.0
    #: Gap between a DMA data store and the completion/CQE store that
    #: follows it: PCIe posted writes pipeline, so the notification does
    #: not pay a second full bus traversal (it lands just behind the data).
    completion_pipeline_gap: float = 25.0
    #: When set, all application traffic rides the reliability transport
    #: (retransmission + dedup) and a failure detector is attached; when
    #: None (the default), the NIC models the lossless happy path.
    reliability: Optional[ReliabilityConfig] = None

    def issue_latency(self) -> float:
        """Host posting an operation until the NIC starts injecting."""
        return self.issue_overhead + self.pcie.latency


class BaseNic(Component):
    """A NIC attached to one node's memory and to the fabric."""

    #: Catalog group of the counters every NIC model shares
    #: (``tx_messages``, ``rx_dropped_failed`` …): ``nic.rvma``/``nic.rdma``.
    metric_group: str

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        memory: NodeMemory,
        fabric: BaseFabric,
        config: Optional[NicConfig] = None,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"nic{node_id}")
        self.node_id = node_id
        self.memory = memory
        self.fabric = fabric
        self.config = config or NicConfig()
        self.pcie = PcieBus(self.config.pcie)
        self._dispatch: dict[type, Callable[[Delivery], None]] = {}
        #: Set by fault injection: a failed NIC drops all traffic and
        #: refuses host commands.
        self.failed = False
        #: Count of crash-restarts survived (stamps rejoin handshakes so
        #: stale pre-crash state is never mistaken for the new life).
        self.incarnation = 0
        #: Opt-in runtime invariant auditor
        #: (:class:`repro.recovery.auditor.InvariantAuditor`).  None by
        #: default: the hot paths only pay an attribute check.
        self.auditor = None
        #: Opt-in placement quota hook (duck-typed so this layer never
        #: imports services): an object with ``admit(src, mailbox,
        #: nbytes, now) -> bool`` consulted before inbound payload is
        #: placed.  A False verdict is reject-into-counter semantics —
        #: the concrete NIC NACKs and counts, it does not drop silently.
        #: See :class:`repro.services.tenancy.PlacementQuota`.
        self.placement_quota = None
        #: Reliability layer (None when running the lossless happy path).
        self.transport: Optional[ReliableTransport] = None
        self.detector: Optional[FailureDetector] = None
        if self.config.reliability is not None:
            self.transport = ReliableTransport(self, self.config.reliability)
            self.detector = FailureDetector(self, self.transport, self.config.reliability)
        #: ``tx_messages``/``tx_control`` counters, resolved on first use
        #: (a counter is registered, and reported, from its first use).
        self._tx_messages = None
        self._tx_control = None
        # The fabric runs the receive entry once the NIC pipeline has
        # processed an arrival (packet or whole message).
        fabric.attach(node_id, self._on_delivery, self.config.nic_proc)

    # --- receive path ------------------------------------------------------------

    def register_handler(self, header_type: type, fn: Callable[[Delivery], None]) -> None:
        self._dispatch[header_type] = fn

    def fail(self) -> None:
        """Simulate node death: all subsequent traffic is dropped."""
        self.failed = True
        self.stat("recovery.failed").add()

    def crash(self) -> None:
        """Crash-stop: drop traffic *and* atomically destroy the NIC's
        volatile state (LUT, in-flight ops, reliability flows).

        Unlike :meth:`fail`, a crashed NIC can come back via
        :meth:`restart` — but it comes back empty: everything it knew
        must be rebuilt by the recovery protocol
        (:mod:`repro.recovery`).  Host memory survives (it is host
        memory), as do host-side journals/checkpoints.
        """
        self.failed = True
        self.incarnation += 1
        self.stat("recovery.crashes").add()
        self._destroy_volatile_state()
        if self.transport is not None:
            # The old flows died with the NIC: silence their timers so
            # a zombie transport cannot retransmit or raise suspicion
            # after the node comes back.
            self.transport.shutdown()
            self.detector.shutdown()
            # A fresh transport takes over immediately so host sends
            # issued while the node is down are still sequenced and
            # journaled (the recovery agent re-seeds sequence numbers).
            self.transport = ReliableTransport(self, self.config.reliability)
            self.detector = FailureDetector(self, self.transport, self.config.reliability)

    def restart(self) -> None:
        """Bring a crashed node back (still amnesiac until rejoined)."""
        if not self.failed:
            return
        self.failed = False
        self.stat("recovery.restarts").add()

    def _destroy_volatile_state(self) -> None:
        """Subclass hook: wipe NIC-resident state lost in a crash."""

    def _on_delivery(self, delivery: Delivery) -> None:
        """The receive entry, ``nic_proc`` after an arrival: a failed
        NIC drops it, a live one dispatches it to the handler of its
        header type (:meth:`dispatch_inner`, in this frame)."""
        if self.failed:
            self.stat(f"{self.metric_group}.rx_dropped_failed").add()
            return
        fn = self._dispatch.get(type(delivery.message.header))
        if fn is None:
            self.stat(f"{self.metric_group}.rx_unknown_header").add()
            return
        fn(delivery)

    def dispatch_inner(self, delivery: Delivery) -> None:
        """Dispatch a delivery to the handler of its header type.

        The reliability transport calls this for the traffic it
        unwraps: the NIC pipeline cost was already charged on arrival
        of the enveloped traffic, so this is a plain handler lookup.
        """
        fn = self._dispatch.get(type(delivery.message.header))
        if fn is None:
            self.stat(f"{self.metric_group}.rx_unknown_header").add()
            return
        fn(delivery)

    def flow_ordered(self, flow: int) -> bool:
        """Whether the reliability transport must deliver *flow* in
        strict sequence order.  Receiver-Managed (stream-append) windows
        need it — append order is the data; Receiver-Steered windows are
        offset-addressed and tolerant of reordering (paper §IV-B)."""
        return False

    def flow_room(self, flow: int) -> Optional[int]:
        """Free receive room for *flow* in bytes, or ``None`` when the
        flow is not receiver-paced.  Ordered (Receiver-Managed) flows
        report their bucket's remaining append capacity so the
        reliability transport can hold a message that would not fit
        whole — a partial append NACKed mid-message would otherwise
        duplicate its placed prefix on retry."""
        return None

    def pipeline_quiescent(self) -> bool:
        """Whether no received data is still in flight inside the NIC's
        DMA pipeline (checkpoints only snapshot quiescent pipelines)."""
        return True

    def on_peer_suspected(self, record: PeerFailed) -> None:
        """Failure-detector hook: *record.peer* is presumed dead.

        Subclasses fail outstanding operations targeting the peer so
        software blocks on a completion, not forever.
        """
        self.stat("detector.peer_failures_seen").add()

    # --- transmit path -------------------------------------------------------------

    def inject(
        self,
        dst: int,
        size: int,
        header: Any,
        data: bytes = b"",
        mode: Optional[RoutingMode] = None,
        after: float = 0.0,
    ) -> None:
        """Put a message on the fabric ``after`` ns from now."""
        self.sim.post(after, self._inject_now, dst, size, header, data, mode)

    def _inject_now(self, dst: int, size: int, header: Any, data: bytes, mode) -> Message:
        counter = self._tx_messages
        if counter is None:
            counter = self._tx_messages = self.stat(f"{self.metric_group}.tx_messages")
        counter.value += 1
        if (
            self.transport is not None
            and dst != self.node_id
            and self.transport.wraps(header)
        ):
            return self.transport.send(dst, size, header, data, mode)
        return self.fabric.send(self.node_id, dst, size, header=header, data=data, mode=mode)

    def send_control(self, dst: int, header: Any, mode: Optional[RoutingMode] = None) -> None:
        """Emit a small control message (ack/NACK/read request)."""
        counter = self._tx_control
        if counter is None:
            counter = self._tx_control = self.stat(f"{self.metric_group}.tx_control")
        counter.value += 1
        if (
            self.transport is not None
            and dst != self.node_id
            and self.transport.wraps(header)
        ):
            self.transport.send(dst, CONTROL_BYTES, header, b"", mode)
            return
        self.fabric.send(self.node_id, dst, CONTROL_BYTES, header=header, mode=mode)

    def local_injection_done(self) -> float:
        """Absolute time the injection channel finishes the last send."""
        return max(self.fabric.injection_busy_until(self.node_id), self.sim.now)

    # --- host-side futures -----------------------------------------------------------

    def future(self) -> Future:
        return Future(self.sim)

    def resolve_at(self, fut: Future, time: float, value: Any = None) -> None:
        self.sim.post_at(max(time, self.sim.now), fut.resolve, value)
