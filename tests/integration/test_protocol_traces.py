"""Trace-level protocol verification.

Spies wrap a NIC instance's own methods to record *when* protocol steps
happen, so the tests assert *orderings* inside the protocols — the
causality claims behind the figures, not just end states.
"""

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.memory.buffer import HostBuffer
from repro.network import NetworkConfig, RoutingMode
from repro.rdma import CompletionMode, VerbsEndpoint, client_request_region, server_serve_region

from tests.helpers import run_gens


def _cluster(nic):
    return Cluster.build(
        n_nodes=2, topology="star", nic_type=nic, fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.ADAPTIVE), seed=3,
    )


def _spy(nic, method, record):
    """Replace *nic*'s bound *method* with a wrapper that first appends
    ``record(*args, **kwargs)`` stamped with the simulated time, then
    calls it."""
    seen = []
    inner = getattr(nic, method)

    def spy(*args, **kwargs):
        seen.append((nic.sim.now, record(*args, **kwargs)))
        return inner(*args, **kwargs)

    setattr(nic, method, spy)
    return seen


def test_rvma_completion_written_after_all_placements():
    cl = _cluster("rvma")
    nic1 = cl.node(1).nic
    placements = _spy(nic1, "_place", lambda entry, buf, hdr, off, n, data: n)
    completions = _spy(nic1, "_write_completion", lambda pb, record: record.epoch)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    size = 4096 * 3  # several packets

    def receiver():
        win = yield from api1.init_window(0x1, epoch_threshold=size)
        yield from api1.post_buffer(win, size=size)
        yield from api1.wait_completion(win)

    def sender():
        yield 1000.0
        op = yield from api0.put(1, 0x1, size=size)
        yield op.local_done

    run_gens(cl.sim, receiver(), sender())
    assert len(placements) == 3 and len(completions) == 1
    # The NIC never signals the host before the last byte is placed.
    assert completions[0][0] >= max(t for t, _ in placements)
    assert sum(n for _, n in placements) == size


def test_rdma_signal_send_posted_after_write_ack():
    """The fence the paper describes: under adaptive routing, the
    initiator may only issue the completion send after the transport
    acked the write."""
    cl = _cluster("rdma")
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    # The target acks a write once its last fragment is placed.
    placed = _spy(
        nic1, "_place_write",
        lambda src, hdr, off, n, data: nic1._op_bytes.get(hdr.op_id, 0) + n >= hdr.total_size,
    )
    sends = _spy(nic0, "hw_send", lambda dst, size, *rest, **opts: size)
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))

    def server():
        landing, _ = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64)
        yield from v1.post_recv(ctl, wr_id=5, tag=5)
        yield from v1.wait_write_completion(
            landing, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, ctl, wr_id=5
        )

    def client():
        hs = yield from client_request_region(v0, server=1, size=8192)
        yield from v0.write_with_completion(1, hs.region, 8192, wr_id=5)

    run_gens(cl.sim, server(), client())
    # The data write's ack (the handshake also acks; take the last one).
    t_ack = max(t for t, last in placed if last)
    signals = [t for t, size in sends if size == 1]
    assert signals, "completion signal send was never posted"
    assert signals[0] > t_ack


def test_tracer_disabled_by_default_keeps_runs_clean():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="packet")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def receiver():
        win = yield from api1.init_window(0x2, epoch_threshold=8)
        yield from api1.post_buffer(win, size=8)
        yield from api1.wait_completion(win)

    def sender():
        yield 1000.0
        yield from api0.put(1, 0x2, size=8)

    run_gens(cl.sim, receiver(), sender())
    assert not cl.sim.spans.active
    assert len(cl.sim.spans) == 0
