"""Streaming bandwidth / message-rate microbenchmarks.

Complements the latency study (Figs 4-5) the way perftest's ``_bw``
tests complement ``_lat``: a window of outstanding transfers streams
from one node to another and we measure achieved bytes/ns and
messages/us.

Expected physics (asserted by the bench): at large sizes both RVMA and
RDMA saturate the injection link — RVMA is not a bandwidth trick; at
small sizes RVMA's uncoordinated puts sustain a higher message rate
than RDMA's ready/ack/signal cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..core.api import RvmaApi
from ..memory.buffer import HostBuffer
from ..nic.lut import EpochType
from ..network.routing import RoutingMode
from ..rdma.handshake import client_request_region, server_serve_region
from ..rdma.verbs import VerbsEndpoint
from ..sim.process import AllOf, spawn
from .cache import memoize_timing
from .calibration import Testbed
from .microbench import _build

BW_MAILBOX = 0xB3
#: Outstanding transfers kept in flight (perftest tx-depth analogue).
DEFAULT_WINDOW = 16


@dataclass
class BandwidthPoint:
    """One streaming measurement."""

    size: int
    n_messages: int
    elapsed_ns: float

    @property
    def bytes_per_ns(self) -> float:
        return self.size * self.n_messages / self.elapsed_ns

    @property
    def msgs_per_us(self) -> float:
        return self.n_messages / (self.elapsed_ns / 1000.0)

    def link_utilisation(self, link_bw: float) -> float:
        """Fraction of raw link bandwidth achieved (payload bytes only)."""
        return self.bytes_per_ns / link_bw


@memoize_timing
def rvma_bandwidth(
    testbed: Testbed,
    size: int,
    n_messages: int = 64,
    window: int = DEFAULT_WINDOW,
) -> BandwidthPoint:
    """Streamed RVMA puts; elapsed measured first-post -> last-completion."""
    cl = _build(testbed, "rvma", RoutingMode.ADAPTIVE, "flow")
    api0 = RvmaApi(cl.node(0), testbed.rvma_sw_overhead)
    api1 = RvmaApi(cl.node(1), testbed.rvma_sw_overhead)
    marks: dict[str, float] = {}

    def receiver() -> Generator:
        win = yield from api1.init_window(
            BW_MAILBOX, epoch_threshold=1, epoch_type=EpochType.EPOCH_OPS
        )
        for _ in range(n_messages):
            yield from api1.post_buffer(win, size=size)
        for _ in range(n_messages):
            yield from api1.wait_completion(win)
        marks["end"] = cl.sim.now

    def sender() -> Generator:
        yield 5000.0
        marks["start"] = cl.sim.now
        inflight = []
        for _ in range(n_messages):
            op = yield from api0.put(1, BW_MAILBOX, size=size)
            inflight.append(op.local_done)
            if len(inflight) >= window:
                yield inflight.pop(0)
        yield AllOf(inflight)

    spawn(cl.sim, receiver(), "bw-rx")
    spawn(cl.sim, sender(), "bw-tx")
    cl.sim.run()
    if "end" not in marks:
        raise RuntimeError("bandwidth stream incomplete")
    return BandwidthPoint(size, n_messages, marks["end"] - marks["start"])


@memoize_timing
def rdma_bandwidth(
    testbed: Testbed,
    size: int,
    n_messages: int = 64,
    window: int = DEFAULT_WINDOW,
) -> BandwidthPoint:
    """Streamed spec-compliant RDMA: per-message ready/write/ack/signal.

    The stream reuses one registered region per in-flight slot (the
    receiver must green-light reuse, as in the motif protocol), which is
    what bounds RDMA's message rate at small sizes.
    """
    cl = _build(testbed, "rdma", RoutingMode.ADAPTIVE, "flow")
    v0 = VerbsEndpoint(cl.node(0), testbed.verbs)
    v1 = VerbsEndpoint(cl.node(1), testbed.verbs)
    marks: dict[str, float] = {}
    WR_READY, WR_SIG = 11, 12

    def server() -> Generator:
        landing, _region = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64, label="bw-ctl")
        # Green-light `window` transfers up front, then one per completion.
        for _ in range(window):
            yield from v1.send(0, 16, b"", tag=WR_READY, wr_id=WR_READY, signaled=False)
        done = 0
        while done < n_messages:
            yield from v1.post_recv(ctl, wr_id=WR_SIG, tag=WR_SIG)
            yield from v1.wait_cq(WR_SIG)
            done += 1
            if done + window <= n_messages:
                yield from v1.send(0, 16, b"", tag=WR_READY, wr_id=WR_READY, signaled=False)
        marks["end"] = cl.sim.now

    def client() -> Generator:
        ready_buf = HostBuffer.allocate(cl.node(0).memory, 64, label="bw-ready")
        for _ in range(window):
            yield from v0.post_recv(ready_buf, wr_id=WR_READY, tag=WR_READY)
        hs = yield from client_request_region(v0, server=1, size=size)
        yield 5000.0
        marks["start"] = cl.sim.now
        for i in range(n_messages):
            yield from v0.wait_cq(WR_READY)
            if i + window < n_messages:
                yield from v0.post_recv(ready_buf, wr_id=WR_READY, tag=WR_READY)
            op = yield from v0.rdma_write(1, hs.region, size, signaled=False)
            entry = yield op.done  # ack fence before the signal
            if not entry.ok:
                raise RuntimeError("stream write failed")
            yield from v0.send(1, 1, b"", tag=WR_SIG, wr_id=WR_SIG, signaled=False)
        marks["done_tx"] = cl.sim.now

    spawn(cl.sim, server(), "bw-srv")
    spawn(cl.sim, client(), "bw-cli")
    cl.sim.run()
    if "end" not in marks:
        raise RuntimeError("bandwidth stream incomplete")
    return BandwidthPoint(size, n_messages, marks["end"] - marks["start"])

