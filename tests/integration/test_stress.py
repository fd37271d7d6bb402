"""Stress tests: resource exhaustion and many-window behaviour.

Exercises the bounded-hardware story (paper §III-B): limited NIC
counters spill to host memory with a measurable penalty but no
correctness loss; many concurrent windows on one NIC stay isolated.
"""

import pytest

from repro.cluster import Cluster
from repro.core import EpochType, RvmaApi
from repro.nic.rvma import RvmaNicConfig
from repro.sim import spawn

from tests.helpers import run_gens


def test_many_windows_stay_isolated():
    """64 windows on one node, interleaved senders: every window sees
    exactly its own traffic."""
    n_windows = 64
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity="flow")
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    results = {}

    def receiver():
        wins = []
        for w in range(n_windows):
            win = yield from api1.init_window(0x1000 + w, epoch_threshold=16)
            yield from api1.post_buffer(win, size=16)
            wins.append(win)
        for w, win in enumerate(wins):
            info = yield from api1.wait_completion(win)
            results[w] = info.read_data()

    def sender():
        yield 100_000.0  # let all windows arm
        # Send in reverse order so completion order != posting order.
        for w in reversed(range(n_windows)):
            op = yield from api0.put(1, 0x1000 + w, data=bytes([w]) * 16)
            yield op.local_done

    run_gens(cl.sim, receiver(), sender())
    assert len(results) == n_windows
    for w, data in results.items():
        assert data == bytes([w]) * 16, f"window {w} got foreign data"


def test_counter_spill_under_window_pressure_is_correct_but_slower():
    """More active buffers than NIC counters: completions still fire
    (via host-memory counters) and the spill penalty is visible."""
    n_windows = 8

    def run(counters: int) -> float:
        cfg = RvmaNicConfig(nic_counters=counters)
        cl = Cluster.build(
            n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
            nic_config=cfg,
        )
        api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
        done = {}

        def receiver():
            wins = []
            for w in range(n_windows):
                win = yield from api1.init_window(0x2000 + w, epoch_threshold=8)
                yield from api1.post_buffer(win, size=8)
                wins.append(win)
            for win in wins:
                yield from api1.wait_completion(win)
            done["t"] = cl.sim.now

        def sender():
            yield 50_000.0
            done["t0"] = cl.sim.now
            for w in range(n_windows):
                op = yield from api0.put(1, 0x2000 + w, size=8)
                yield op.local_done

        run_gens(cl.sim, receiver(), sender())
        if counters == 0:
            assert cl.node(1).nic.lut.spill_events == n_windows
            assert cl.node(1).nic.stat("nic.rvma.spilled_completions").value == n_windows
        return done["t"] - done["t0"]

    fast = run(counters=1024)
    slow = run(counters=0)
    assert slow > fast  # spill pays the PCIe round trip per completion


def test_lut_entry_exhaustion_surfaces_cleanly():
    cfg = RvmaNicConfig(lut_entries=4)
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", nic_config=cfg
    )
    api1 = RvmaApi(cl.node(1))
    outcome = {}

    def receiver():
        from repro.core import RvmaApiError

        made = 0
        try:
            for w in range(8):
                yield from api1.init_window(0x3000 + w, epoch_threshold=8)
                made += 1
        except RvmaApiError as exc:
            outcome["made"] = made
            outcome["status"] = exc.status

    proc = spawn(cl.sim, receiver(), "rx")
    cl.sim.run()
    assert proc.finished
    assert outcome["made"] == 4
    from repro.core import RvmaStatus

    assert outcome["status"] is RvmaStatus.ERR_NO_RESOURCES


def test_deep_epoch_churn_single_window():
    """One window cycles through 200 epochs; epochs stay dense and the
    retained ring holds exactly the configured tail."""
    cfg = RvmaNicConfig(retain_epochs=5)
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", nic_config=cfg
    )
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    epochs = 200

    def receiver():
        win = yield from api1.init_window(0x4000, epoch_threshold=1,
                                          epoch_type=EpochType.EPOCH_OPS)
        for _ in range(4):
            yield from api1.post_buffer(win, size=32)
        for _ in range(epochs):
            info = yield from api1.wait_completion(win)
            yield from api1.post_buffer(win, buffer=info.record.buffer)
        entry = cl.node(1).nic.lut.lookup(0x4000)
        return entry

    def sender():
        yield 20_000.0
        for _ in range(epochs):
            op = yield from api0.put(1, 0x4000, size=32)
            yield op.local_done

    entry, _ = run_gens(cl.sim, receiver(), sender())
    assert entry.epoch == epochs
    assert len(entry.retired) == 5
    assert [r.epoch for r in entry.retired] == list(range(epochs - 5, epochs))
