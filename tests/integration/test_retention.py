"""Memory follows the work in flight, not the number of ops.

Every consumed posting releases its record, a re-posted buffer reuses
its notification line, a stream recycles chunks that have left the
NIC's rewind ring and a put handle lives only while a message names
it, so a KV cell run twice as long ends holding exactly the same
allocations, posted records and put handles.

What a run lets go of is freed at once: no record made per wait, per
put or per op is part of a reference cycle, so reference counting
frees it without the cyclic collector, which ``Simulator.run`` pauses.

Host memory backs only what was written: each allocation's backing ends
at the highest byte ever written to it.  A put retried after a NACK is
freed once its retry is placed, so the incast cell, which NACKs and
retries puts, ends holding none.

The RDMA baseline's CQ demultiplexer keeps only receive completions
nobody has claimed yet: initiator completions are pulled, charged and
dropped, so the Halo3D RDMA leg ends with an empty demultiplexer at any
iteration count.  The only CQ entries left are the few still queued on
the CQs, pushed after their node's last wait, which no software polls.
"""

from __future__ import annotations

import gc
from collections import Counter
from functools import partial

import pytest

from repro import Cluster
from repro.core import RvmaApi
from repro.experiments.chaos import run_chaos, run_crash_restart
from repro.experiments.kv_churn import run_kv_service
from repro.memory import NodeMemory
from repro.motifs import Halo3D
from repro.network.routing import RoutingMode
from repro.nic.cq import CqEntry
from repro.nic.rvma import PutOp
from repro.rdma.dispatch import CqDispatcher
from repro.services import WorkloadConfig

from tests.properties.test_cost_ledger import CELLS, _motif


def _retained(monkeypatch, n_ops: int):
    windows = []
    init_window = RvmaApi.init_window

    def recording_init_window(self, *args, **kwargs):
        win = yield from init_window(self, *args, **kwargs)
        windows.append(win)
        return win

    monkeypatch.setattr(RvmaApi, "init_window", recording_init_window)
    cell = run_kv_service(
        seed=1, n_server_nodes=1, shards_per_node=2, n_client_nodes=2, clients_per_node=1,
        workload=WorkloadConfig(n_ops=n_ops, n_keys=64, batch=4),
    )
    assert cell.completed, cell.error
    allocations = [node.memory.allocation_count for node in cell.cluster.nodes]
    posted = sorted((win.virtual_addr, len(win.posted)) for win in windows)
    put_handles = _live_puts()
    return allocations, posted, put_handles, sum(win.consumed for win in windows)


def _live_puts() -> int:
    """Put handles still reachable (the caller keeps its clusters alive)."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, PutOp))


def test_kv_retention_does_not_grow_with_op_count(monkeypatch):
    allocations, posted, put_handles, consumed = _retained(monkeypatch, 200)
    allocations2, posted2, put_handles2, consumed2 = _retained(monkeypatch, 400)
    assert consumed2 > consumed  # the longer run really did more work
    assert allocations2 == allocations
    assert posted2 == posted
    assert put_handles2 == put_handles


#: Every cost-ledger cell, and both fault sweeps at one seed.
ACYCLIC_CELLS = {
    **CELLS,
    "crash-restart-sweep": partial(run_crash_restart, seeds=(1,)),
    "chaos-sweep": partial(run_chaos, seeds=(1,)),
}


def _keep_clusters(monkeypatch) -> list:
    """Keep every cluster the cell builds (in the returned list) alive."""
    clusters = []
    build = Cluster.build

    def kept_build(cls, *args, **kwargs):
        clusters.append(build(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(Cluster, "build", classmethod(kept_build))
    return clusters


@pytest.mark.parametrize("name", sorted(ACYCLIC_CELLS))
def test_cell_leaves_no_cyclic_garbage(monkeypatch, name):
    # A cluster is one big cycle by design: keep every one the cell
    # builds alive, so that only what the run let go of is counted.
    clusters = _keep_clusters(monkeypatch)
    gc.collect()
    # Paused for the whole cell: a bounded drain leaves the collector
    # on, and a collection inside the cell would hide the garbage.
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ACYCLIC_CELLS[name]()
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert clusters
    assert unreachable == 0, f"{name} left {unreachable} objects in reference cycles: {kinds}"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_backs_only_written_bytes(monkeypatch, name):
    allocations = []
    highest = {}
    alloc, write = NodeMemory.alloc, NodeMemory.write

    def recording_alloc(self, *args, **kwargs):
        allocations.append(alloc(self, *args, **kwargs))
        return allocations[-1]

    def recording_write(self, addr, data):
        write(self, addr, data)
        if data:
            a = self.find(addr, len(data))
            highest[a] = max(highest.get(a, 0), addr + len(data) - a.base)

    monkeypatch.setattr(NodeMemory, "alloc", recording_alloc)
    monkeypatch.setattr(NodeMemory, "write", recording_write)
    CELLS[name]()
    backed = [0 if a._data is None else len(a._data) for a in allocations]
    written = [highest.get(a, 0) for a in allocations]
    assert allocations and highest
    assert backed == written, (
        f"{name} backs {sum(backed):,} B for {sum(written):,} B written"
    )


def test_incast_cell_ends_holding_no_put(monkeypatch):
    # Its puts are NACKed NO_BUFFER and retried until a buffer takes
    # them: every retry lands, so no message names a put any more.
    clusters = _keep_clusters(monkeypatch)
    CELLS["incast-pkt"]()
    nics = [node.nic for cl in clusters for node in cl.nodes]
    assert sum(nic.stat("nic.rvma.put_retries").value for nic in nics) > 0
    assert _live_puts() == 0


@pytest.mark.parametrize("iterations", [2, 4])
def test_rdma_halo3d_leg_ends_with_an_empty_cq_demux(monkeypatch, iterations):
    # The cost ledger's 27-node Halo3D RDMA leg, at two lengths.
    clusters = _keep_clusters(monkeypatch)
    dispatchers = []
    init = CqDispatcher.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dispatchers.append(self)

    monkeypatch.setattr(CqDispatcher, "__init__", recording_init)
    _motif(Halo3D, "rdma", 27, "hyperx", RoutingMode.STATIC, "400Gbps", "flow",
           iterations=iterations, msg_bytes=8192, compute_ns=1000.0)()
    assert clusters and dispatchers
    assert sum(d.entries_dispatched for d in dispatchers) > 0
    assert all(not d._unclaimed and not d._waiters and not d._pulling for d in dispatchers)
    gc.collect()
    live = sum(1 for o in gc.get_objects() if isinstance(o, CqEntry))
    queued = sum(len(node.nic.cq) for cl in clusters for node in cl.nodes)
    # Every live entry is still on a CQ: fewer than one per rank and face.
    assert live == queued < 27 * 6
