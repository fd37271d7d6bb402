"""Microbenchmarks reproducing Figs 4-5: one-way completed-put latency.

The measured quantity matches the paper's modified OFED perftest: the
time from the initiator posting a put until the *target* observes the
transfer complete —

* RVMA: the NIC's threshold completion writes the completion pointer
  and the receiver's MWait/poll fires.  One message on the wire.
* RDMA (adaptive, spec-compliant): write, transport-ack fence at the
  initiator, then a 1-byte send whose recv CQE the target polls.
* RDMA (static routing): last-byte polling of the landing buffer —
  included to show RVMA is comparable to the static fast path.

Each measurement is a strict ping-pong (pong not timed) on a 2-node
single-switch cluster at packet fidelity, so multi-packet serialization
behaves like the real wire.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Generator

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..memory.buffer import HostBuffer
from ..memory.mwait import MWAIT, POLL
from ..nic.cq import CqKind
from ..nic.rdma import MAX_IMM_PAYLOAD
from ..network.routing import RoutingMode
from ..rdma.completion_modes import CompletionMode
from ..rdma.handshake import client_request_region, server_serve_region
from ..rdma.ucx import UcpEndpoint
from ..rdma.verbs import VerbsEndpoint
from ..sim.process import spawn
from .cache import memoize_timing
from .calibration import Testbed

PING_MAILBOX = 0xA11CE
PONG_MAILBOX = 0xB0B
PONG_BYTES = 8
WR_CTL, WR_PONG = 7001, 7002

DEFAULT_ITERATIONS = 6
DEFAULT_WARMUP = 2


@dataclass
class LatencyPoint:
    """One size's latency comparison (a point on Fig 4 or Fig 5)."""

    size: int
    rvma_ns: float
    rdma_ns: float

    @property
    def reduction_pct(self) -> float:
        """Paper's metric: % latency reduction from using RVMA."""
        return 100.0 * (1.0 - self.rvma_ns / self.rdma_ns)

    @property
    def speedup(self) -> float:
        return self.rdma_ns / self.rvma_ns


def _mean(samples: list[float], warmup: int) -> float:
    kept = samples[warmup:]
    return statistics.fmean(kept) if kept else float("nan")


def _build(
    testbed: Testbed,
    nic_type: str,
    routing: RoutingMode,
    fidelity: str,
    nic_cfg=None,
) -> Cluster:
    net = testbed.net.with_(routing=routing)
    if nic_cfg is None:
        nic_cfg = (
            testbed.rvma_nic_config() if nic_type == "rvma" else testbed.rdma_nic_config()
        )
    return Cluster.build(
        n_nodes=2, topology="star", nic_type=nic_type,
        fidelity=fidelity, net_config=net, nic_config=nic_cfg,
    )


# ------------------------------------------------------------------------ RVMA


@memoize_timing
def rvma_latency(
    testbed: Testbed,
    size: int,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    routing: RoutingMode = RoutingMode.ADAPTIVE,
    fidelity: str = "packet",
    wakeup=MWAIT,
    nic_cfg=None,
) -> float:
    """Mean one-way RVMA completed-put latency in ns.

    ``wakeup`` selects the receiver's notification mechanism (MWait,
    cache-line polling, or CQ-style polling — ablation A2); ``nic_cfg``
    overrides the RVMA NIC sizing (LUT/counter ablation A1)."""
    cl = _build(testbed, "rvma", routing, fidelity, nic_cfg)
    api0 = RvmaApi(cl.node(0), testbed.rvma_sw_overhead)
    api1 = RvmaApi(cl.node(1), testbed.rvma_sw_overhead)
    total = iterations + warmup
    starts: list[float] = []
    samples: list[float] = []

    def receiver() -> Generator:
        win = yield from api1.init_window(PING_MAILBOX, epoch_threshold=size)
        for _ in range(total):
            yield from api1.post_buffer(win, size=size)
        for i in range(total):
            yield from api1.wait_completion(win, wakeup)
            samples.append(cl.sim.now - starts[i])
            op = yield from api1.put(0, PONG_MAILBOX, size=PONG_BYTES)
            yield op.local_done

    def sender() -> Generator:
        pong = yield from api0.init_window(PONG_MAILBOX, epoch_threshold=PONG_BYTES)
        for _ in range(total):
            yield from api0.post_buffer(pong, size=PONG_BYTES)
        yield 5000.0  # let the receiver arm its window first
        for _ in range(total):
            starts.append(cl.sim.now)
            yield from api0.put(1, PING_MAILBOX, size=size)
            yield from api0.wait_completion(pong, MWAIT)

    spawn(cl.sim, receiver(), "rvma-rx")
    spawn(cl.sim, sender(), "rvma-tx")
    cl.sim.run()
    if len(samples) != total:
        raise RuntimeError(f"rvma ping-pong incomplete: {len(samples)}/{total}")
    return _mean(samples, warmup)


# ------------------------------------------------------------------------ RDMA / Verbs


@memoize_timing
def rdma_verbs_latency(
    testbed: Testbed,
    size: int,
    completion: CompletionMode = CompletionMode.SEND_RECV,
    routing: RoutingMode = RoutingMode.ADAPTIVE,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    fidelity: str = "packet",
) -> float:
    """Mean one-way RDMA completed-write latency over Verbs, in ns.

    ``SEND_RECV`` is the spec-compliant adaptive-network sequence
    (Fig 4's RDMA series); ``LAST_BYTE_POLL`` with static routing is the
    classic fast path RVMA is "comparable" to.
    """
    if completion is CompletionMode.WRITE_IMM and size > MAX_IMM_PAYLOAD:
        raise ValueError(
            f"write-with-immediate carries at most {MAX_IMM_PAYLOAD}B "
            f"(paper §I); got {size}"
        )
    cl = _build(testbed, "rdma", routing, fidelity)
    v0 = VerbsEndpoint(cl.node(0), testbed.verbs)
    v1 = VerbsEndpoint(cl.node(1), testbed.verbs)
    total = iterations + warmup
    starts: list[float] = []
    samples: list[float] = []
    payload = bytes(size) if completion is CompletionMode.LAST_BYTE_POLL else b""

    def server() -> Generator:
        landing, _region = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64, label="ctl")
        pong_src = HostBuffer.allocate(cl.node(1).memory, PONG_BYTES, label="pong")
        if completion is CompletionMode.SEND_RECV:
            yield from v1.post_recv(ctl, wr_id=WR_CTL, tag=WR_CTL)
        for i in range(total):
            if completion is CompletionMode.SEND_RECV:
                yield from v1.wait_cq(WR_CTL)
                samples.append(cl.sim.now - starts[i])
                yield from v1.post_recv(ctl, wr_id=WR_CTL, tag=WR_CTL)
            elif completion is CompletionMode.WRITE_IMM:
                while True:  # skip unrelated CQEs (e.g. handshake sends)
                    entry = yield v1.nic.cq.wait()
                    yield v1.costs.poll_cq
                    if entry.kind is CqKind.WRITE_IMM:
                        break
                samples.append(cl.sim.now - starts[i])
            else:
                # Last-byte sentinel: iteration number modulo 251, never 0.
                yield v1.node.waiter.wait_for_byte(
                    landing.addr + size - 1, (i % 251) + 1, POLL
                )
                samples.append(cl.sim.now - starts[i])
            op = yield from v1.send(
                0, PONG_BYTES, b"", tag=WR_PONG, wr_id=WR_PONG, signaled=False
            )
            yield op.done

    def client() -> Generator:
        pong_buf = HostBuffer.allocate(cl.node(0).memory, 64, label="pong-rx")
        yield from v0.post_recv(pong_buf, wr_id=WR_PONG, tag=WR_PONG)
        hs = yield from client_request_region(v0, server=1, size=max(size, 64))
        for i in range(total):
            starts.append(cl.sim.now)
            if completion is CompletionMode.SEND_RECV:
                yield from v0.write_with_completion(
                    1, hs.region, size, b"", completion=completion, wr_id=WR_CTL
                )
            elif completion is CompletionMode.WRITE_IMM:
                yield v0.costs.post_send
                op = v0.nic.hw_write(
                    1, hs.region.addr, hs.region.rkey, size, imm=i, signaled=False
                )
                yield op.done
            else:
                data = bytearray(payload)
                data[-1] = (i % 251) + 1
                op = yield from v0.rdma_write(
                    1, hs.region, size, bytes(data), signaled=False
                )
                yield op.done
            yield from v0.wait_cq(WR_PONG)
            yield from v0.post_recv(pong_buf, wr_id=WR_PONG, tag=WR_PONG)

    spawn(cl.sim, server(), "rdma-rx")
    spawn(cl.sim, client(), "rdma-tx")
    cl.sim.run()
    if len(samples) != total:
        raise RuntimeError(f"rdma ping-pong incomplete: {len(samples)}/{total}")
    return _mean(samples, warmup)


# ------------------------------------------------------------------------ RDMA / UCX


@memoize_timing
def rdma_ucx_latency(
    testbed: Testbed,
    size: int,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    routing: RoutingMode = RoutingMode.ADAPTIVE,
    fidelity: str = "packet",
    completion: CompletionMode = CompletionMode.SEND_RECV,
) -> float:
    """Mean one-way latency of the UCX RDMA sequence (Fig 5's series).

    ``SEND_RECV``: ucp_put_nbi + flush + tagged completion send (the
    adaptive-network-compliant sequence).  ``LAST_BYTE_POLL``: put only,
    receiver spins on the final byte (static routing fast path, used as
    Fig 6's static baseline)."""
    if completion is CompletionMode.LAST_BYTE_POLL and routing is not RoutingMode.STATIC:
        raise ValueError("last-byte polling requires static routing")
    cl = _build(testbed, "rdma", routing, fidelity)
    u0 = UcpEndpoint(cl.node(0), testbed.ucp)
    u1 = UcpEndpoint(cl.node(1), testbed.ucp)
    v0 = VerbsEndpoint(cl.node(0), testbed.verbs)  # handshake transport
    v1 = VerbsEndpoint(cl.node(1), testbed.verbs)
    total = iterations + warmup
    starts: list[float] = []
    samples: list[float] = []
    lastbyte = completion is CompletionMode.LAST_BYTE_POLL

    def server() -> Generator:
        landing, _region = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64, label="ctl")
        if not lastbyte:
            yield from u1.tag_recv_arm(ctl, tag=WR_CTL)
        for i in range(total):
            if lastbyte:
                yield v1.node.waiter.wait_for_byte(
                    landing.addr + size - 1, (i % 251) + 1, POLL
                )
                samples.append(cl.sim.now - starts[i])
            else:
                yield from u1.tag_recv_wait(tag=WR_CTL)
                samples.append(cl.sim.now - starts[i])
                yield from u1.tag_recv_arm(ctl, tag=WR_CTL)
            op = yield from u1.tag_send(0, PONG_BYTES, tag=WR_PONG)
            yield op.done

    def client() -> Generator:
        pong_buf = HostBuffer.allocate(cl.node(0).memory, 64, label="pong-rx")
        yield from u0.tag_recv_arm(pong_buf, tag=WR_PONG)
        hs = yield from client_request_region(v0, server=1, size=max(size, 64))
        for i in range(total):
            starts.append(cl.sim.now)
            if lastbyte:
                data = bytearray(size)
                data[-1] = (i % 251) + 1
                op = yield from u0.put_nbi(1, hs.region, size, bytes(data))
                yield op.done
            else:
                yield from u0.put_nbi(1, hs.region, size)
                yield from u0.flush()  # remote-completion fence
                op = yield from u0.tag_send(1, 1, tag=WR_CTL)
            yield from u0.tag_recv_wait(tag=WR_PONG)
            yield from u0.tag_recv_arm(pong_buf, tag=WR_PONG)

    spawn(cl.sim, server(), "ucx-rx")
    spawn(cl.sim, client(), "ucx-tx")
    cl.sim.run()
    if len(samples) != total:
        raise RuntimeError(f"ucx ping-pong incomplete: {len(samples)}/{total}")
    return _mean(samples, warmup)


# ------------------------------------------------------------------------ sweeps


def latency_sweep(
    testbed: Testbed,
    sizes: list[int],
    interface: str = "verbs",
    routing: RoutingMode = RoutingMode.ADAPTIVE,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
) -> list[LatencyPoint]:
    """Fig 4 (interface='verbs') / Fig 5 (interface='ucx') data series."""
    points = []
    for size in sizes:
        rvma = rvma_latency(testbed, size, iterations, warmup, routing)
        if interface == "verbs":
            rdma = rdma_verbs_latency(
                testbed, size, CompletionMode.SEND_RECV, routing, iterations, warmup
            )
        elif interface == "ucx":
            rdma = rdma_ucx_latency(testbed, size, iterations, warmup, routing)
        else:
            raise ValueError(f"unknown interface {interface!r}")
        points.append(LatencyPoint(size=size, rvma_ns=rvma, rdma_ns=rdma))
    return points
