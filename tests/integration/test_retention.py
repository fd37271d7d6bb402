"""KV memory follows the work in flight, not the number of ops.

Every consumed posting releases its record, a re-posted buffer reuses
its notification line, a stream recycles chunks that have left the
NIC's rewind ring and a settled put leaves its NIC's put window, so a
cell run twice as long ends holding exactly the same allocations,
posted records and put handles.
"""

from __future__ import annotations

from repro.core import RvmaApi
from repro.experiments.kv_churn import run_kv_service
from repro.services import WorkloadConfig


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
    put_handles = [len(node.nic._puts) for node in cell.cluster.nodes]
    return allocations, posted, put_handles, sum(win.consumed for win in windows)


def test_kv_retention_does_not_grow_with_op_count(monkeypatch):
    allocations, posted, put_handles, consumed = _retained(monkeypatch, 200)
    allocations2, posted2, put_handles2, consumed2 = _retained(monkeypatch, 400)
    assert consumed2 > consumed  # the longer run really did more work
    assert allocations2 == allocations
    assert posted2 == posted
    assert put_handles2 == put_handles
