"""Integration: full protocol stacks end-to-end over the packet fabric."""

import pytest

from repro.cluster import Cluster
from repro.core import EpochType, RvmaApi
from repro.memory.buffer import HostBuffer
from repro.network import MTU, NetworkConfig, RoutingMode
from repro.rdma import CompletionMode, VerbsEndpoint, client_request_region, server_serve_region

from tests.helpers import run_gens


def _cluster(nic, routing=RoutingMode.ADAPTIVE, topology="fattree", n=16):
    return Cluster.build(
        n_nodes=n, topology=topology, nic_type=nic, fidelity="packet",
        net_config=NetworkConfig(routing=routing),
    )


def test_rvma_multi_packet_put_reassembles_out_of_order():
    """A put spanning many packets over an adaptive (reordering) network
    must land byte-exact — RVMA's offset-steered placement at work."""
    cl = _cluster("rvma")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(15))
    size = MTU * 7 + 123
    payload = bytes((i * 37 + 11) % 256 for i in range(size))

    def receiver():
        win = yield from api1.init_window(0x1, epoch_threshold=size)
        yield from api1.post_buffer(win, size=size)
        info = yield from api1.wait_completion(win)
        return info

    def sender():
        yield 2000.0
        op = yield from api0.put(15, 0x1, data=payload)
        yield op.local_done

    info, _ = run_gens(cl.sim, receiver(), sender())
    assert info.length == size
    assert info.read_data() == payload
    # The network genuinely reordered (adaptive fat-tree, many packets).
    assert cl.fabric.packets_delivered.value == 8


def test_rvma_epoch_pipeline_multiple_buffers():
    """Three puts complete three successive buffers; each epoch's data
    is intact and completion order follows posting order."""
    cl = _cluster("rvma")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(7))
    msgs = [bytes([i]) * 512 for i in (1, 2, 3)]

    def receiver():
        win = yield from api1.init_window(0x2, epoch_threshold=1,
                                          epoch_type=EpochType.EPOCH_OPS)
        for _ in msgs:
            yield from api1.post_buffer(win, size=512)
        out = []
        for _ in msgs:
            info = yield from api1.wait_completion(win)
            out.append(info.read_data())
        return out

    def sender():
        yield 2000.0
        for m in msgs:
            op = yield from api0.put(7, 0x2, data=m)
            yield op.local_done
            yield 2000.0  # serialize so arrival order is deterministic

    out, _ = run_gens(cl.sim, receiver(), sender())
    assert out == msgs
    assert cl.node(7).nic.lut.lookup(0x2).epoch == 3


def test_rdma_full_stack_handshake_write_signal():
    """RDMA spec-compliant transfer on an adaptive network: handshake,
    multi-packet write, ack fence, signalling send, recv CQE."""
    cl = _cluster("rdma")
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(9))
    size = MTU * 3 + 77
    payload = bytes((i * 13 + 5) % 256 for i in range(size))

    def server():
        landing, _ = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(9).memory, 64)
        yield from v1.post_recv(ctl, wr_id=1, tag=1)
        yield from v1.wait_write_completion(
            landing, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, ctl, wr_id=1
        )
        return landing.read(0, size)

    def client():
        hs = yield from client_request_region(v0, server=9, size=size)
        yield from v0.write_with_completion(
            9, hs.region, size, payload, mode=RoutingMode.ADAPTIVE, wr_id=1
        )

    data, _ = run_gens(cl.sim, server(), client())
    assert data == payload


def test_rvma_beats_rdma_one_way_latency_on_adaptive():
    """The Fig 4 effect, end to end on the same fat-tree: the RVMA
    receiver learns completion well before the RDMA receiver does."""
    size = 2048
    done = {}

    # RVMA side
    cl = _cluster("rvma")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(5))

    def rvma_rx():
        win = yield from api1.init_window(0x3, epoch_threshold=size)
        yield from api1.post_buffer(win, size=size)
        yield from api1.wait_completion(win)
        done["rvma"] = cl.sim.now - done["rvma_t0"]

    def rvma_tx():
        yield 2000.0
        done["rvma_t0"] = cl.sim.now
        yield from api0.put(5, 0x3, size=size)

    run_gens(cl.sim, rvma_rx(), rvma_tx())

    # RDMA side (same network parameters)
    cl2 = _cluster("rdma")
    v0, v1 = VerbsEndpoint(cl2.node(0)), VerbsEndpoint(cl2.node(5))

    def rdma_rx():
        landing, _ = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl2.node(5).memory, 64)
        yield from v1.post_recv(ctl, wr_id=1, tag=1)
        yield from v1.wait_write_completion(
            landing, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, ctl, wr_id=1
        )
        done["rdma"] = cl2.sim.now - done["rdma_t0"]

    def rdma_tx():
        hs = yield from client_request_region(v0, server=5, size=size)
        done["rdma_t0"] = cl2.sim.now
        yield from v0.write_with_completion(
            5, hs.region, size, mode=RoutingMode.ADAPTIVE, wr_id=1
        )

    run_gens(cl2.sim, rdma_rx(), rdma_tx())
    assert done["rvma"] < done["rdma"]
    assert done["rdma"] / done["rvma"] > 1.5


def test_flow_and_packet_fidelity_agree_at_small_scale():
    """The flow model must track the packet model on an uncontended
    2-node transfer (DESIGN.md's fidelity-agreement gate)."""
    size = 16384
    results = {}
    for fidelity in ("flow", "packet"):
        cl = Cluster.build(
            n_nodes=2, topology="star", nic_type="rvma", fidelity=fidelity,
            net_config=NetworkConfig(routing=RoutingMode.STATIC),
        )
        api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
        t = {}

        def rx(api1=api1, cl=cl, t=t):
            win = yield from api1.init_window(0x4, epoch_threshold=size)
            yield from api1.post_buffer(win, size=size)
            yield from api1.wait_completion(win)
            t["lat"] = cl.sim.now - t["t0"]

        def tx(api0=api0, cl=cl, t=t):
            yield 1000.0
            t["t0"] = cl.sim.now
            yield from api0.put(1, 0x4, size=size)

        run_gens(cl.sim, rx(), tx())
        results[fidelity] = t["lat"]
    ratio = results["flow"] / results["packet"]
    # Packet mode pipelines fragments (cut-through per MTU), flow mode
    # serializes the whole message once; they must agree within ~25%.
    assert 0.75 < ratio < 1.25, results
