"""Unit tests: receiver-managed streaming, fault tolerance, cluster, faults."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    EpochJournal,
    RvmaApi,
    RvmaStatus,
    StreamClient,
    StreamServer,
    latest_consistent_epoch,
    mpix_rewind,
)
from repro.faults import FaultInjector
from repro.network import NetworkConfig, RoutingMode

from tests.helpers import run_gen, run_gens


# --- receiver-managed streaming -----------------------------------------------


@pytest.fixture
def stream_pair():
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="packet",
        net_config=NetworkConfig(routing=RoutingMode.STATIC),
    )


def test_stream_chunks_delivered_in_order(stream_pair):
    cl = stream_pair
    server = StreamServer(RvmaApi(cl.node(1)), mailbox=0xCAFE, chunk_size=16)
    client = StreamClient(RvmaApi(cl.node(0)), server_node=1, mailbox=0xCAFE)

    def server_proc():
        yield from server.open()
        chunks = []
        for _ in range(3):
            chunk = yield from server.recv()
            chunks.append(chunk)
        return chunks

    def client_proc():
        yield 3000.0
        # Stream 48 bytes as unaligned writes: 10+22+16; the server sees
        # three full 16-byte chunks regardless of client write sizes.
        for piece in (b"0123456789", b"ABCDEFGHIJKLMNOPQRSTUV", b"WXYZ" * 4):
            op = yield from client.send(piece)
            yield op.local_done

    chunks, _ = run_gens(cl.sim, server_proc(), client_proc())
    assert b"".join(chunks) == b"0123456789" + b"ABCDEFGHIJKLMNOPQRSTUV" + b"WXYZ" * 4
    assert all(len(c) == 16 for c in chunks)


def test_stream_flush_surfaces_partial_chunk(stream_pair):
    cl = stream_pair
    server = StreamServer(RvmaApi(cl.node(1)), mailbox=0xCAFE, chunk_size=64)
    client = StreamClient(RvmaApi(cl.node(0)), server_node=1, mailbox=0xCAFE)

    def server_proc():
        yield from server.open()
        yield 10000.0  # partial data has arrived
        status = yield from server.flush()
        info = yield from server.api.wait_completion(server.win)
        return status, info.length, info.read_data()

    def client_proc():
        yield 3000.0
        op = yield from client.send(b"partial-data")
        yield op.local_done

    (status, length, data), _ = run_gens(cl.sim, server_proc(), client_proc())
    assert status is RvmaStatus.SUCCESS
    assert length == len(b"partial-data")
    assert data == b"partial-data"


def test_stream_close(stream_pair):
    cl = stream_pair
    server = StreamServer(RvmaApi(cl.node(1)), mailbox=0xCAFE, chunk_size=8)

    def proc():
        yield from server.open()
        status = yield from server.close()
        return status

    assert run_gen(cl.sim, proc()) is RvmaStatus.SUCCESS


def test_stream_validation():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="packet")
    with pytest.raises(Exception):
        StreamServer(RvmaApi(cl.node(1)), mailbox=1, chunk_size=0)


# --- fault tolerance helpers -----------------------------------------------------


def test_epoch_journal_rollback_target():
    j = EpochJournal()
    j.commit(step=1, epoch=2)
    j.commit(step=2, epoch=4)
    j.commit(step=3, epoch=6)
    assert j.rollback_target(completed_epoch=5) == 2
    assert j.rollback_target(completed_epoch=6) == 3
    assert j.rollback_target(completed_epoch=1) is None
    assert len(j) == 3


def test_epoch_journal_requires_increasing_steps():
    j = EpochJournal()
    j.commit(1, 1)
    with pytest.raises(ValueError):
        j.commit(1, 2)


def test_mpix_rewind_returns_epoch_data(rvma_pair):
    cl = rvma_pair
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))

    def receiver():
        win = yield from api1.init_window(0x200, epoch_threshold=16)
        yield from api1.post_buffer(win, size=16)
        yield from api1.post_buffer(win, size=16)
        yield from api1.wait_completion(win)
        yield from api1.wait_completion(win)
        one_back = yield from mpix_rewind(api1, win, 1)
        two_back = yield from mpix_rewind(api1, win, 2)
        missing = yield from mpix_rewind(api1, win, 9)
        last = yield from latest_consistent_epoch(api1, win)
        return one_back, two_back, missing, last

    def sender():
        yield 2000.0
        for tagbyte in (b"A", b"B"):
            op = yield from api0.put(1, 0x200, data=tagbyte * 16)
            yield op.local_done
            yield 3000.0

    (one, two, missing, last), _ = run_gens(cl.sim, receiver(), sender())
    assert one.data == b"B" * 16 and one.epoch == 1
    assert two.data == b"A" * 16 and two.epoch == 0
    assert missing is None
    assert last == 1  # two epochs completed: 0 and 1; epoch 2 in progress


# --- cluster builder ----------------------------------------------------------------


def test_cluster_build_validates():
    with pytest.raises(ValueError):
        Cluster.build(n_nodes=4, topology="star", nic_type="rvma", fidelity="bogus")
    with pytest.raises(ValueError):
        Cluster.build(n_nodes=4, topology="star", nic_type="quantum")


def test_cluster_build_both_fidelities():
    for fidelity in ("flow", "packet"):
        cl = Cluster.build(n_nodes=4, topology="dragonfly", nic_type="rdma", fidelity=fidelity)
        assert cl.n_nodes == 4
        assert cl.node(2).node_id == 2
        assert cl.nic_type == "rdma"


def test_cluster_topology_instance_must_match_nodes():
    from repro.network import make_topology

    topo = make_topology("star", 8)
    with pytest.raises(ValueError):
        Cluster.build(n_nodes=4, topology=topo)


# --- fault injector ------------------------------------------------------------------


def test_fail_node_at_drops_subsequent_traffic():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    inj.fail_node_at(1, time=1000.0)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x1, 8, b"12345678")
        yield op.local_done
        yield 5000.0

    run_gen(cl.sim, sender())
    assert inj.node_is_dead(1)
    assert inj.log.node_failures == [(1, 1000.0)]
    assert cl.node(1).nic.stat("nic.rvma.rx_dropped_failed").value >= 1


def test_drop_messages_probabilistically():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    inj.drop_messages(1.0)  # drop everything

    def sender():
        op = cl.node(0).nic.hw_put(1, 0x1, 8, b"12345678")
        yield op.local_done
        yield 5000.0

    run_gen(cl.sim, sender())
    assert inj.log.messages_dropped >= 1
    inj.clear()
    assert cl.fabric.fault_filter is None


def test_corrupt_payloads_flips_bytes():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    inj.corrupt_payloads(1.0)
    got = {}

    def receiver():
        nic = cl.node(1).nic
        yield nic.hw_init_window(0x1)
        from repro.memory.buffer import HostBuffer

        buf = HostBuffer.allocate(cl.node(1).memory, 8)
        slot = cl.node(1).memory.alloc(64, align=64)
        cl.node(1).memory.write(slot.base, b"\x00" * 16)
        yield nic.hw_post_buffer(0x1, buf, 8, slot.base, slot.base + 8)
        yield cl.node(1).waiter.wait_for_nonzero_u64(slot.base)
        got["data"] = buf.contents()

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x1, 8, b"\x00" * 8)
        yield op.local_done

    run_gens(cl.sim, receiver(), sender())
    assert got["data"][0] == 0xFF  # first byte flipped
    assert inj.log.payloads_corrupted >= 1


def test_fault_injector_validates_probability():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    inj = FaultInjector(cl)
    with pytest.raises(ValueError):
        inj.drop_messages(1.5)
    with pytest.raises(ValueError):
        inj.corrupt_payloads(-0.1)


def test_stream_recycling_keeps_rewind_ring_intact(stream_pair):
    cl = stream_pair
    api = RvmaApi(cl.node(1))
    retain = api.nic.lut.retain_epochs
    n_sent = 3 * retain
    server = StreamServer(api, mailbox=0xCAFE, chunk_size=16, n_chunks=2)
    client = StreamClient(RvmaApi(cl.node(0)), server_node=1, mailbox=0xCAFE)
    chunks = [bytes([i]) * 16 for i in range(n_sent)]
    memory = api.node.memory
    allocated = memory.allocation_count

    def server_proc():
        yield from server.open()
        got = []
        for _ in range(n_sent):
            chunk = yield from server.recv()
            got.append(chunk)
        ring = []
        for back in range(1, retain + 1):
            record = yield from api.rewind(server.win, back)
            ring.append(record.buffer.buffer.read(0, record.length))
        return got, ring

    def client_proc():
        yield 3000.0
        for chunk in chunks:
            op = yield from client.send(chunk)
            yield op.local_done

    (got, ring), _ = run_gens(cl.sim, server_proc(), client_proc())
    assert got == chunks
    # Every epoch the ring still holds reads back intact: no chunk in it
    # was re-posted and refilled.
    assert ring == chunks[::-1][:retain]
    # Fresh chunks stop once the first consumed chunk leaves the ring:
    # n_chunks + retain chunks in all, each with one notification line.
    assert memory.allocation_count - allocated == 2 * (server.n_chunks + retain)


# --- MPI RMA window ------------------------------------------------------------------


@pytest.mark.parametrize("nic", ["rvma", "rdma"])
def test_write_local_is_kept_beside_remote_puts_and_readable_remotely(nic):
    from repro.mpi import MpiRma

    cl = Cluster.build(n_nodes=2, topology="star", nic_type=nic, fidelity="flow")
    rma = MpiRma(cl, ring_depth=3)
    seen = {}

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=32, win_id=1)
        if r == 1:
            win.write_local(0, b"L" * 8)
        else:
            yield from win.put(1, data=b"R" * 8, disp=16)
        yield from win.fence()
        seen[r] = win.read(0, 24)
        if r == 0:
            seen["get"] = yield from win.get(1, 8, disp=0)
        yield from win.fence()

    run_gens(cl.sim, rank_proc(0), rank_proc(1))
    assert seen[1] == b"L" * 8 + bytes(8) + b"R" * 8
    assert seen[0] == bytes(24)
    assert seen["get"] == b"L" * 8
