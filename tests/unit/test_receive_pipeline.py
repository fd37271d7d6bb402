"""One receiver event per arrival: the NIC pipeline runs inside the delivery.

The fabric posts each arrival's ``_deliver`` at the wire arrival time
plus the receiving NIC's ``nic_proc``; that one event applies the fault
filter, takes the latency sample and enters the NIC.  Fault windows are
judged at the wire arrival, so their drop instants are those of the
wire; a NIC that fails while an arrival is in its pipeline drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cluster import Cluster
from repro.faults import FaultInjector


@dataclass(slots=True)
class _Probe:
    """A header only the test's handler understands."""

    tag: int = 0


def _pair(fidelity: str = "flow"):
    """Two RVMA nodes; node 1 records ``(now, arrival_time)`` per probe."""
    cl = Cluster.build(n_nodes=2, topology="star", nic_type="rvma", fidelity=fidelity)
    seen: list = []
    nic = cl.node(1).nic
    nic.register_handler(_Probe, lambda d: seen.append((cl.sim.now, d.arrival_time)))
    return cl, nic, seen


def _arrival(fidelity: str = "flow") -> float:
    """Wire arrival time of one probe sent at t=0 on a fresh pair."""
    cl, _nic, seen = _pair(fidelity)
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    ((_now, arrival),) = seen
    return arrival


@pytest.mark.parametrize("fidelity", ["flow", "packet"])
def test_handler_runs_one_pipeline_after_the_wire_arrival(fidelity):
    cl, nic, seen = _pair(fidelity)
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    ((now, arrival),) = seen
    assert now == arrival + nic.config.nic_proc


def test_flow_message_costs_one_receiver_event():
    cl, nic, seen = _pair()
    before = cl.sim.events_executed
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    assert len(seen) == 1
    assert cl.sim.events_executed - before == 1


def test_window_closing_inside_the_pipeline_still_drops():
    arrival = _arrival()
    cl, nic, seen = _pair()
    FaultInjector(cl).drop_window(0.0, arrival + nic.config.nic_proc / 2)
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    assert seen == []
    assert cl.fabric.deliveries_dropped.value == 1


def test_window_opening_inside_the_pipeline_does_not_drop():
    arrival = _arrival()
    cl, nic, seen = _pair()
    FaultInjector(cl).drop_window(arrival + nic.config.nic_proc / 2, arrival + 1_000.0)
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    assert len(seen) == 1
    assert cl.fabric.deliveries_dropped.value == 0


def test_nic_failing_inside_the_pipeline_drops_the_arrival():
    arrival = _arrival()
    cl, nic, seen = _pair()
    cl.sim.schedule_at(arrival + nic.config.nic_proc / 2, nic.fail)
    cl.fabric.send(0, 1, 64, header=_Probe())
    cl.sim.run()
    assert seen == []
    assert nic.stat("nic.rvma.rx_dropped_failed").value == 1
