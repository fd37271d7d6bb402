"""The next-event slot changes no event order: the wake-order oracle.

``Simulator.wake`` keeps the first wake of an event in a one-entry slot
and runs it as soon as the event ends if it is still the next event.
Each leg below runs twice, recording every callback the simulator
runs: once as shipped, and once with every wake posted to the heap as
``post(0.0, fn, arg)``, the order the slot must reproduce.  The two
call sequences must be identical.  The legs are small Sweep3D and
Halo3D runs on both NICs, one KV cell, and one observed trace replay,
whose resolves wake several waiters at once.  The Sweep3D legs also pin
exact simulated time and event counts, so a relay hop put back on the
completion path fails here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.cluster.builder as builder
from repro.cluster import Cluster
from repro.experiments.kv_churn import run_kv_service
from repro.experiments.trace_replay import record_trace, replay_trace
from repro.motifs import Halo3D, RdmaProtocol, RvmaProtocol, Sweep3D
from repro.network import NetworkConfig, RoutingMode
from repro.services import WorkloadConfig
from repro.sim import Future, Simulator
from repro.units import gbps


class TracingSimulator(Simulator):
    """Records ``(now, callback name)`` for every callback it runs."""

    __slots__ = ("calls",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[float, str]] = []

    def _traced(self, fn):
        calls = self.calls
        name = getattr(fn, "__qualname__", type(fn).__qualname__)

        def run(*args, **kwargs):
            calls.append((self.now, name))
            return fn(*args, **kwargs)

        return run

    def wake(self, fn, arg) -> None:
        super().wake(self._traced(fn), arg)

    def post(self, delay, fn, *args) -> None:
        super().post(delay, self._traced(fn), *args)

    def post_at(self, time, fn, *args, **kwargs) -> None:
        super().post_at(time, self._traced(fn), *args, **kwargs)

    def schedule_at(self, time, fn, *args, **kwargs):
        return super().schedule_at(time, self._traced(fn), *args, **kwargs)


class PostingSimulator(TracingSimulator):
    """The reference order: every wake is an ordinary delay-0 post."""

    __slots__ = ()

    def wake(self, fn, arg) -> None:
        self.post(0.0, fn, arg)


def _assert_same_order(slot: TracingSimulator, ref: PostingSimulator) -> None:
    assert slot.calls == ref.calls
    assert (slot.now, slot.pending_events) == (ref.now, ref.pending_events)
    # The slot saved events, and every callback still ran exactly once.
    assert slot.events_executed < ref.events_executed == len(ref.calls)


def _motif_leg(sim_cls, motif_cls, nic: str, topology: str, n: int, routing, **kw):
    sim = sim_cls(seed=7)
    cl = Cluster.build(
        n_nodes=n, topology=topology, nic_type=nic, fidelity="flow",
        net_config=NetworkConfig(link_bw=gbps(100), routing=routing), sim=sim,
    )
    proto = RvmaProtocol() if nic == "rvma" else RdmaProtocol()
    return motif_cls(cl, proto, **kw).run(), sim


def _both(*leg, **kw):
    result, slot = _motif_leg(TracingSimulator, *leg, **kw)
    ref_result, ref = _motif_leg(PostingSimulator, *leg, **kw)
    assert result.elapsed == ref_result.elapsed
    _assert_same_order(slot, ref)
    return result, slot


#: (nic, elapsed ns, events executed) for the Sweep3D leg below.  The
#: elapsed times predate the slot; the events were 9,952 (RVMA) and
#: 39,320 (RDMA) when every wake was an event of its own and a pump
#: process fed the RDMA completion demux, 7,739 and 30,421 while each
#: arrival took a second event for the receiving NIC's pipeline, and
#: the RDMA leg's 25,705 while the CQ woke its demux consumer with an
#: event instead of calling it.
SWEEP3D_PINS = [
    ("rvma", 103429.00000000025, 6971),
    ("rdma", 518367.63999999664, 25624),
]


@pytest.mark.parametrize("nic,elapsed_ns,events", SWEEP3D_PINS)
def test_sweep3d_legs_keep_wake_order_and_pinned_counts(nic, elapsed_ns, events):
    result, sim = _both(Sweep3D, nic, "dragonfly", 16, RoutingMode.ADAPTIVE, kb=4)
    assert (result.elapsed, sim.events_executed) == (elapsed_ns, events)


@pytest.mark.parametrize("nic", ["rvma", "rdma"])
def test_halo3d_legs_keep_wake_order(nic):
    _both(Halo3D, nic, "hyperx", 27, RoutingMode.STATIC, iterations=2, msg_bytes=4096)


def _cell_leg(monkeypatch, run_cell) -> None:
    """Run a KV cell on both simulators; results and call order must agree."""

    def run(sim_cls):
        sims = []

        def make(*args, **kwargs):
            sims.append(sim_cls(*args, **kwargs))
            return sims[-1]

        monkeypatch.setattr(builder, "Simulator", make)
        cell = run_cell()
        assert cell.invariants_ok and len(sims) == 1
        return cell, sims[0]

    cell, slot = run(TracingSimulator)
    ref_cell, ref = run(PostingSimulator)
    # Equal but for the event count and the cluster object itself; a
    # run report compares by its scrubbed dict.
    assert cell.report == ref_cell.report
    assert replace(cell, events_executed=0, cluster=None, run_report=None) == replace(
        ref_cell, events_executed=0, cluster=None, run_report=None
    )
    _assert_same_order(slot, ref)


def test_kv_cell_keeps_wake_order(monkeypatch):
    _cell_leg(
        monkeypatch,
        lambda: run_kv_service(seed=1, workload=WorkloadConfig(n_ops=40, batch=2)),
    )


def test_observed_trace_replay_keeps_wake_order(monkeypatch):
    """Spans on: the one leg whose resolves wake several waiters at once."""
    trace, _stats = record_trace(
        seed=3,
        workload=WorkloadConfig(
            n_ops=24, n_keys=16, value_bytes=32, zipf_s=0.9, mode="open",
            mean_interarrival_ns=3000.0, rng_stream="kv-trace-prop",
        ),
        client_tenants=(0, 0),
    )
    multi = []
    resolve = Future.resolve

    def counting(fut, value=None):
        multi.append(len(fut._waiters) > 1)
        resolve(fut, value)

    monkeypatch.setattr(Future, "resolve", counting)
    _cell_leg(monkeypatch, lambda: replay_trace(trace, seed=3, observe=True))
    assert sum(multi) > 0
