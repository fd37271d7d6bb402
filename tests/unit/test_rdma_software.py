"""Unit tests for the Verbs/UCX software layers, handshake and dispatch."""

import pytest

from repro.memory.buffer import HostBuffer
from repro.nic.cq import CqKind
from repro.network.routing import RoutingMode
from repro.rdma import (
    CompletionMode,
    CqDispatcher,
    UcpEndpoint,
    UnsafeCompletionError,
    VerbsEndpoint,
    check_mode_safety,
    client_request_region,
    pack_region,
    server_serve_region,
    spec_compliant_mode,
    unpack_region,
)
from repro.memory.buffer import MemoryRegion
from repro.memory.mwait import CQ_POLL
from repro.nic.cq import CqEntry
from repro.sim import spawn

from tests.helpers import run_gen, run_gens


# --- completion-mode safety ---------------------------------------------------


def test_last_byte_poll_refused_on_adaptive():
    with pytest.raises(UnsafeCompletionError):
        check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.ADAPTIVE)
    # explicit opt-in for demonstrating the bug
    check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.ADAPTIVE, allow_unsafe=True)
    check_mode_safety(CompletionMode.LAST_BYTE_POLL, RoutingMode.STATIC)
    check_mode_safety(CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE)


def test_spec_compliant_mode_is_send_recv():
    assert spec_compliant_mode(RoutingMode.ADAPTIVE) is CompletionMode.SEND_RECV


# --- region descriptor wire format ------------------------------------------------


def test_region_pack_unpack_roundtrip():
    mr = MemoryRegion(addr=0xDEADBEEF00, length=4096, rkey=0x1234, node_id=3)
    data = pack_region(mr)
    assert len(data) == 24
    back = unpack_region(data, node_id=3)
    assert (back.addr, back.length, back.rkey) == (mr.addr, mr.length, mr.rkey)


# --- handshake -----------------------------------------------------------------


def test_handshake_transfers_real_region(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))

    def server():
        buffer, region = yield from server_serve_region(v1, client=0)
        return buffer, region

    def client():
        hs = yield from client_request_region(v0, server=1, size=4096)
        return hs

    (buffer, region), hs = run_gens(cl.sim, server(), client())
    # The client learned the server's *raw* physical address — the
    # exposure RVMA's mailboxes remove.
    assert hs.region.addr == buffer.addr == region.addr
    assert hs.region.rkey == region.rkey
    assert hs.region.length == 4096
    assert hs.elapsed > 0


def test_handshake_then_write_lands_in_served_buffer(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))

    def server():
        buffer, _region = yield from server_serve_region(v1, client=0)
        yield 30000.0
        return buffer.read(0, 11)

    def client():
        hs = yield from client_request_region(v0, server=1, size=64)
        op = yield from v0.rdma_write(1, hs.region, 11, b"hello world")
        yield op.done

    data, _ = run_gens(cl.sim, server(), client())
    assert data == b"hello world"


# --- verbs endpoint ----------------------------------------------------------------


def test_verbs_write_bounds_check(rdma_pair):
    cl = rdma_pair
    v0 = VerbsEndpoint(cl.node(0))
    region = MemoryRegion(addr=0x1000, length=64, rkey=1, node_id=1)

    def proc():
        yield from v0.rdma_write(1, region, 128)

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())


def test_verbs_reg_mr_cost_scales_with_size(rdma_pair):
    cl = rdma_pair
    v1 = VerbsEndpoint(cl.node(1))
    times = []

    def proc(size):
        t0 = cl.sim.now
        buf = HostBuffer.allocate(cl.node(1).memory, size)
        yield from v1.reg_mr(buf)
        times.append(cl.sim.now - t0)

    run_gen(cl.sim, proc(1024))
    run_gen(cl.sim, proc(1024 * 1024))
    assert times[1] > times[0]


def test_verbs_requires_rdma_nic(rvma_pair):
    with pytest.raises(TypeError):
        VerbsEndpoint(rvma_pair.node(0))


def test_write_with_completion_sequence(rdma_pair):
    cl = rdma_pair
    v0, v1 = VerbsEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))
    state = {}

    def server():
        buffer, _ = yield from server_serve_region(v1, client=0)
        ctl = HostBuffer.allocate(cl.node(1).memory, 64)
        yield from v1.post_recv(ctl, wr_id=3, tag=3)
        entry = yield from v1.wait_write_completion(
            buffer, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, ctl, wr_id=3
        )
        state["done_at"] = cl.sim.now
        return entry, buffer

    def client():
        hs = yield from client_request_region(v0, server=1, size=256)
        yield from v0.write_with_completion(
            1, hs.region, 200, b"c" * 200, mode=RoutingMode.ADAPTIVE,
            completion=CompletionMode.SEND_RECV, wr_id=3,
        )

    (entry, buffer), _ = run_gens(cl.sim, server(), client())
    assert entry.kind is CqKind.RECV
    assert buffer.read(0, 200) == b"c" * 200


def test_wait_write_completion_needs_ctl_buffer(rdma_pair):
    cl = rdma_pair
    v1 = VerbsEndpoint(cl.node(1))
    buf = HostBuffer.allocate(cl.node(1).memory, 64)

    def proc():
        yield from v1.wait_write_completion(
            buf, CompletionMode.SEND_RECV, RoutingMode.ADAPTIVE, None
        )

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())


# --- dispatcher ---------------------------------------------------------------------


def test_dispatcher_routes_by_predicate(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def waiter(wr):
        entry = yield disp.wait_wr(wr)
        return entry.wr_id

    def pusher():
        yield 10.0
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=9))
        yield 10.0
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=7))

    r7, r9, _ = run_gens(cl.sim, waiter(7), waiter(9), pusher())
    assert (r7, r9) == (7, 9)


def test_dispatcher_keeps_unclaimed_entries(rdma_pair):
    cl = rdma_pair
    nic = cl.node(0).nic
    disp = CqDispatcher(cl.sim, nic.cq)
    from repro.nic.cq import CqEntry

    def early_pusher_then_waiter():
        # The entry arrives while someone waits for a different wr_id...
        nic.cq.push(CqEntry(CqKind.RECV, op_id=1, wr_id=5))
        nic.cq.push(CqEntry(CqKind.RECV, op_id=2, wr_id=6))
        e6 = yield disp.wait_wr(6)
        # ...and the other entry is still claimable afterwards.
        e5 = yield disp.wait_wr(5)
        return e5.wr_id, e6.wr_id

    assert run_gen(cl.sim, early_pusher_then_waiter()) == (5, 6)


# --- CQ demultiplexing ---------------------------------------------------------------


def _demux(cluster):
    nic = cluster.node(0).nic
    return cluster.sim, nic.cq, CqDispatcher(cluster.sim, nic.cq), CQ_POLL.delay_after_store()


def _push_at(sim, cq, t, kind, op_id, wr_id):
    sim.schedule_at(t, cq.push, CqEntry(kind, op_id=op_id, wr_id=wr_id))


def _waiter(sim, at, wait, seen, label):
    """A process that sleeps *at* ns, then records what ``wait()`` yields."""

    def proc():
        yield at
        entry = yield wait()
        seen.append((label, entry.op_id, sim.now))

    spawn(sim, proc(), label)


@pytest.mark.parametrize("other_kind", [None, CqKind.RECV])
def test_demux_earliest_registered_waiter_wins(rdma_pair, other_kind):
    """Two waiters on one wr_id are served in the order they registered,
    with or without an entry for another wr_id (kept, unclaimed) landing
    between their entries."""
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    _waiter(sim, 1.0, lambda: disp.wait_wr(5), seen, "first")
    _waiter(sim, 2.0, lambda: disp.wait_wr(5), seen, "second")
    if other_kind is not None:
        _push_at(sim, cq, 50.0, other_kind, 9, 7)
    _push_at(sim, cq, 10.0, CqKind.RECV, 1, 5)
    _push_at(sim, cq, 100.0, CqKind.RECV, 2, 5)
    sim.run()
    assert seen == [("first", 1, 10.0 + d), ("second", 2, 100.0 + d)]
    kept = [e.op_id for e in disp._unclaimed.get(7, [])]
    assert kept == ([] if other_kind is None else [9])


@pytest.mark.parametrize("kind", [k for k in CqKind if k is not CqKind.RECV])
def test_demux_pulls_and_drops_other_kinds_one_poll_apart(rdma_pair, kind):
    """An entry of any kind but RECV is pulled and charged one poll like
    any other, counted in ``entries_dispatched``, and then dropped: it
    never resolves a wait of its wr_id and is not kept."""
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    _waiter(sim, 1.0, lambda: disp.wait_wr(5), seen, "recv")
    _push_at(sim, cq, 10.0, kind, 1, 5)
    _push_at(sim, cq, 10.0, kind, 2, 5)
    _push_at(sim, cq, 10.0, CqKind.RECV, 3, 5)
    sim.run()
    # Three entries queued at once leave the CQ one poll apart.
    assert seen == [("recv", 3, 10.0 + 3 * d)]
    assert disp.entries_dispatched == 3
    assert not disp._unclaimed and not disp._waiters and not disp._pulling


def test_demux_claims_kept_entries_in_arrival_order(rdma_pair):
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    # A waiter on wr 9 makes the demux pull the wr-4 entries: it keeps
    # the RECV entries and drops the SEND_DONE one.
    _waiter(sim, 0.0, lambda: disp.wait_wr(9), seen, "w9")
    for op_id, kind in enumerate([CqKind.SEND_DONE, CqKind.RECV, CqKind.RECV], start=1):
        _push_at(sim, cq, 10.0 * op_id, kind, op_id, 4)
    _push_at(sim, cq, 40.0, CqKind.RECV, 9, 9)
    _waiter(sim, 200.0, lambda: disp.wait_wr(4), seen, "recv1")
    _waiter(sim, 300.0, lambda: disp.wait_wr(4), seen, "recv2")
    sim.run()
    # Pulled one poll cost apart: the wr-9 entry is the fourth taken.
    assert seen == [
        ("w9", 9, 10.0 + 4 * d),
        ("recv1", 2, 200.0 + d),
        ("recv2", 3, 300.0 + d),
    ]
    assert disp.entries_dispatched == 4
    assert not disp._unclaimed


@pytest.mark.parametrize("n", [1, 4, 12])
def test_demux_recv_wait_behind_dropped_send_done_entries(rdma_pair, n):
    """A RECV wait behind *n* SEND_DONE entries of its wr_id takes the
    earliest RECV; the SEND_DONE entries were pulled, counted and
    dropped, so nothing is kept once both RECVs are claimed."""
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    _waiter(sim, 0.0, lambda: disp.wait_wr(9), seen, "w9")
    kinds = [CqKind.SEND_DONE] * n + [CqKind.RECV, CqKind.SEND_DONE, CqKind.RECV]
    for op_id, kind in enumerate(kinds, start=1):
        _push_at(sim, cq, 10.0 * op_id, kind, op_id, 4)
    _push_at(sim, cq, 10.0 * (len(kinds) + 1), CqKind.RECV, 99, 9)
    t = 10.0 * len(kinds) + 1_000.0
    kept = []
    sim.schedule_at(t - 1.0, lambda: kept.append([e.op_id for e in disp._unclaimed[4]]))
    _waiter(sim, t, lambda: disp.wait_wr(4), seen, "recv1")
    _waiter(sim, t + 200, lambda: disp.wait_wr(4), seen, "recv2")
    sim.run()
    assert seen[0][:2] == ("w9", 99)
    assert kept == [[n + 1, n + 3]]
    assert seen[1:] == [("recv1", n + 1, t + d), ("recv2", n + 3, t + 200 + d)]
    assert disp.entries_dispatched == len(kinds) + 1
    assert not disp._unclaimed and not disp._waiters


@pytest.mark.parametrize("k", [1, 3, 6])
def test_demux_backlog_dispatches_one_poll_apart(rdma_pair, k):
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    for i in range(k):
        _push_at(sim, cq, 10.0, CqKind.RECV, i, i)
    for i in reversed(range(k)):
        _waiter(sim, 50.0, lambda i=i: disp.wait_wr(i), seen, f"w{i}")
    sim.run()
    assert sorted(seen, key=lambda s: s[1]) == [(f"w{i}", i, 50.0 + (i + 1) * d) for i in range(k)]
    assert disp.entries_dispatched == k


def test_demux_goes_idle_and_restarts(rdma_pair):
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    _waiter(sim, 0.0, lambda: disp.wait_wr(1), seen, "a")
    _push_at(sim, cq, 10.0, CqKind.RECV, 1, 1)
    # Nobody waits now: the demux has stopped pulling, so this stays queued.
    _push_at(sim, cq, 20.0, CqKind.RECV, 2, 2)
    sim.run()
    assert seen == [("a", 1, 10.0 + d)]
    assert len(cq) == 1 and disp.entries_dispatched == 1
    restart = sim.now
    _waiter(sim, 0.0, lambda: disp.wait_wr(2), seen, "b")
    sim.run()
    assert seen[1] == ("b", 2, restart + d)
    assert len(cq) == 0 and disp.entries_dispatched == 2


def test_direct_cq_wait_and_demux_share_one_fifo(rdma_pair):
    sim, cq, disp, d = _demux(rdma_pair)
    seen = []
    _waiter(sim, 1.0, lambda: disp.wait_wr(7), seen, "demux")
    _waiter(sim, 2.0, cq.wait, seen, "direct")
    _waiter(sim, 3.0, cq.wait, seen, "direct2")
    # In order of asking: the demux takes the first entry, the direct
    # waiters the next two; the demux routes after its poll cost.
    _push_at(sim, cq, 10.0, CqKind.RECV, 1, 7)
    _push_at(sim, cq, 11.0, CqKind.RECV, 2, 8)
    _push_at(sim, cq, 12.0, CqKind.RECV, 3, 7)
    sim.run()
    assert seen == [("direct", 2, 11.0), ("direct2", 3, 12.0), ("demux", 1, 10.0 + d)]


# --- UCX ----------------------------------------------------------------------------


def test_ucp_put_and_flush(rdma_pair):
    cl = rdma_pair
    u0, v1 = UcpEndpoint(cl.node(0)), VerbsEndpoint(cl.node(1))
    state = {}

    def server():
        buf = HostBuffer.allocate(cl.node(1).memory, 128)
        state["mr"] = yield cl.node(1).nic.hw_reg_mr(buf)
        yield 50000.0
        return buf

    def client():
        yield 2000.0
        mr = state["mr"]
        yield from u0.put_nbi(1, mr, 64, b"U" * 64)
        yield from u0.put_nbi(1, mr, 32, b"V" * 32, offset=64)
        n = yield from u0.flush()
        return n

    buf, n = run_gens(cl.sim, server(), client())
    assert n == 2
    assert buf.read(0, 64) == b"U" * 64
    assert buf.read(64, 32) == b"V" * 32


def test_ucp_flush_empty_is_cheap(rdma_pair):
    cl = rdma_pair
    u0 = UcpEndpoint(cl.node(0))

    def proc():
        n = yield from u0.flush()
        return n, cl.sim.now

    n, t = run_gen(cl.sim, proc())
    assert n == 0
    assert t == pytest.approx(u0.costs.flush)


def test_ucp_tag_send_recv(rdma_pair):
    cl = rdma_pair
    u0, u1 = UcpEndpoint(cl.node(0)), UcpEndpoint(cl.node(1))

    def receiver():
        buf = HostBuffer.allocate(cl.node(1).memory, 64)
        yield from u1.tag_recv_arm(buf, tag=44)
        entry = yield from u1.tag_recv_wait(tag=44)
        return entry, buf.read(0, 5)

    def sender():
        yield 2000.0
        op = yield from u0.tag_send(1, 5, b"tagme", tag=44)
        yield op.done

    (entry, data), _ = run_gens(cl.sim, receiver(), sender())
    assert entry.kind is CqKind.RECV and entry.wr_id == 44
    assert data == b"tagme"


def test_ucp_put_beyond_region_rejected(rdma_pair):
    cl = rdma_pair
    u0 = UcpEndpoint(cl.node(0))
    mr = MemoryRegion(addr=0x1000, length=32, rkey=1, node_id=1)

    def proc():
        yield from u0.put_nbi(1, mr, 64)

    with pytest.raises(ValueError):
        run_gen(cl.sim, proc())
