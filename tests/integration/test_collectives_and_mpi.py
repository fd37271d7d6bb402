"""Integration: tree collectives and the MPI RMA veneer."""

import pytest

from repro.cluster import Cluster
from repro.mpi import MpiRma, RewindUnsupportedError, win_mailbox
from repro.motifs import RdmaProtocol, RvmaProtocol
from repro.collectives import TreeComm
from repro.sim import spawn


@pytest.fixture(autouse=True)
def _both_fabric_impls(fabric_impl):
    """Every collective/MPI test takes both ``fabric_impl`` legs; these
    clusters are flow fidelity, so the legs run the same code."""


def _drive(cluster, rank_fn, n=None):
    n = n or cluster.n_nodes
    procs = [spawn(cluster.sim, rank_fn(r), f"r{r}") for r in range(n)]
    cluster.sim.run()
    stuck = [p.name for p in procs if not p.finished]
    assert not stuck, f"deadlocked ranks: {stuck}"
    return procs


# --- collectives --------------------------------------------------------------


@pytest.mark.parametrize("nic", ["rvma", "rdma"])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_allreduce_sum_correct(nic, n):
    cl = Cluster.build(n_nodes=n, topology="dragonfly", nic_type=nic, fidelity="flow")
    proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
    tc = TreeComm(cl, proto, vector_slots=3)
    results = {}

    def rank_proc(r):
        comm = yield from tc.setup(r)
        totals = yield from tc.allreduce_sum(comm, [r, 1, 2 * r])
        results[r] = totals

    _drive(cl, rank_proc)
    expect = [sum(range(n)), n, 2 * sum(range(n))]
    assert all(v == expect for v in results.values())


def test_barrier_orders_all_ranks():
    cl = Cluster.build(n_nodes=6, topology="dragonfly", nic_type="rvma", fidelity="flow")
    tc = TreeComm(cl, RvmaProtocol(), vector_slots=1)
    before, after = [], []

    def rank_proc(r):
        comm = yield from tc.setup(r)
        yield float(r * 500)  # stagger arrivals
        before.append((cl.sim.now, r))
        yield from tc.barrier(comm)
        after.append((cl.sim.now, r))

    _drive(cl, rank_proc)
    # No rank leaves the barrier before every rank entered it.
    last_entry = max(t for t, _ in before)
    assert all(t >= last_entry for t, _ in after)
    assert tc.barriers_done == 6


def test_broadcast_from_root():
    cl = Cluster.build(n_nodes=7, topology="fattree", nic_type="rvma", fidelity="flow")
    tc = TreeComm(cl, RvmaProtocol(), vector_slots=2)
    results = {}

    def rank_proc(r):
        comm = yield from tc.setup(r)
        values = yield from tc.broadcast(comm, [123, 456] if r == 0 else None, 2)
        results[r] = values

    _drive(cl, rank_proc)
    assert all(v == [123, 456] for v in results.values())


def test_allreduce_vector_capacity_enforced():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    tc = TreeComm(cl, RvmaProtocol(), vector_slots=2)

    def rank_proc(r):
        comm = yield from tc.setup(r)
        yield from tc.allreduce_sum(comm, [1, 2, 3])  # too wide

    with pytest.raises(ValueError):
        _drive(cl, rank_proc)


# --- MPI RMA veneer --------------------------------------------------------------


@pytest.mark.parametrize("nic", ["rvma", "rdma"])
def test_mpi_put_fence_get_roundtrip(nic):
    n = 4
    cl = Cluster.build(n_nodes=n, topology="star", nic_type=nic, fidelity="flow")
    rma = MpiRma(cl, ring_depth=3)
    results = {}

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=128, win_id=1)
        right = (r + 1) % n
        yield from win.put(right, data=bytes([0x40 + r]) * 16, disp=16 * r)
        epoch = yield from win.fence()
        left = (r - 1) % n
        results[r] = (epoch, win.read(16 * left, 16))
        fetched = yield from win.get(right, 16, disp=16 * r)
        yield from win.fence()
        results[r] += (fetched,)

    _drive(cl, rank_proc)
    for r in range(n):
        epoch, local, fetched = results[r]
        assert epoch == 1
        assert local == bytes([0x40 + (r - 1) % n]) * 16
        assert fetched == bytes([0x40 + r]) * 16  # our own earlier put


def test_mpi_window_contents_persist_across_fences():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    rma = MpiRma(cl, ring_depth=3)
    results = {}

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=64, win_id=2)
        if r == 0:
            yield from win.put(1, data=b"A" * 8, disp=0)
        yield from win.fence()
        if r == 0:
            yield from win.put(1, data=b"B" * 8, disp=8)
        yield from win.fence()
        yield from win.fence()  # an empty epoch must also be harmless
        results[r] = win.read(0, 16)

    _drive(cl, rank_proc)
    # Both epochs' writes coexist: copy-forward preserved epoch 0 data.
    assert results[1] == b"A" * 8 + b"B" * 8


def test_mpix_rewind_restores_previous_epoch():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    rma = MpiRma(cl, ring_depth=4)
    results = {}

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=32, win_id=3)
        for step, byte in enumerate((b"1", b"2", b"3")):
            if r == 0:
                yield from win.put(1, data=byte * 32, disp=0)
            yield from win.fence()
        if r == 1:
            assert win.read(0, 4) == b"3333"
            restored = yield from win.rewind(1)  # back to the "2" epoch
            results["epoch"] = restored
            results["data"] = win.read(0, 4)
        yield from rma.comm.barrier(win.comm)

    _drive(cl, rank_proc)
    assert results["data"] == b"2222"


def test_mpix_rewind_unsupported_on_rdma():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rdma", fidelity="flow")
    rma = MpiRma(cl, ring_depth=3)
    failures = []

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=32, win_id=4)
        yield from win.fence()
        if r == 0:
            try:
                yield from win.rewind(1)
            except RewindUnsupportedError as exc:
                failures.append(str(exc))
        yield from rma.comm.barrier(win.comm)

    _drive(cl, rank_proc)
    assert failures and "overwritten" in failures[0]


def test_mpi_rvma_needs_no_address_exchange_and_is_faster_to_allocate():
    times = {}
    for nic in ("rvma", "rdma"):
        cl = Cluster.build(n_nodes=8, topology="dragonfly", nic_type=nic, fidelity="flow")
        rma = MpiRma(cl)

        def rank_proc(r):
            yield from rma.win_allocate(r, size=4096, win_id=5)

        _drive(cl, rank_proc)
        times[nic] = cl.sim.now
    # RDMA pays registration + the (addr,len,rkey) allgather on top of
    # the same tree synchronization.
    assert times["rdma"] > times["rvma"]


def test_mpi_put_bounds_and_freed_window():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    rma = MpiRma(cl)
    errors = []

    def rank_proc(r):
        win = yield from rma.win_allocate(r, size=32, win_id=6)
        if r == 0:
            try:
                yield from win.put(1, data=b"x" * 40, disp=0)
            except ValueError as exc:
                errors.append("bounds")
        yield from win.fence()
        yield from win.free()
        if r == 0:
            try:
                yield from win.put(1, data=b"x", disp=0)
            except RuntimeError:
                errors.append("freed")

    _drive(cl, rank_proc)
    assert errors == ["bounds", "freed"]


def test_win_mailbox_distinct_per_rank_and_window():
    boxes = {win_mailbox(r, w) for r in range(16) for w in range(8)}
    assert len(boxes) == 16 * 8


def test_mpi_rma_validates_ring_depth():
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    with pytest.raises(ValueError):
        MpiRma(cl, ring_depth=1)


def test_two_windows_coexist_independently():
    """Two MPI windows on the same ranks are fully isolated (win_id
    namespaces the mailboxes)."""
    from repro.mpi import RankWindow

    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    rma = MpiRma(cl, ring_depth=3)
    results = {}

    def rank_proc(r):
        win_a = yield from rma.win_allocate(r, size=32, win_id=10)
        # Second window: fresh collective channels come from the same comm.
        win_b = RankWindow(rma, r, 32, 11, win_a.comm)
        yield from win_b._allocate()
        if r == 0:
            yield from win_a.put(1, data=b"A" * 8, disp=0)
            yield from win_b.put(1, data=b"B" * 8, disp=8)
        yield from win_a.fence()
        yield from win_b.fence()
        if r == 1:
            results["a"] = win_a.read(0, 8)
            results["b"] = win_b.read(8, 8)
            results["a_clean"] = win_a.read(8, 8)

    from repro.mpi import RankWindow

    procs = [spawn(cl.sim, rank_proc(r), f"w{r}") for r in range(2)]
    cl.sim.run()
    assert all(p.finished for p in procs)
    assert results["a"] == b"A" * 8
    assert results["b"] == b"B" * 8
    assert results["a_clean"] == b"\x00" * 8  # window A untouched at disp 8
