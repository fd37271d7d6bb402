"""Unit tests for the component/port model (the SST element surface)."""

import pytest

from repro.sim import Component, Link, Simulator


class _Probe(Component):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []
        self.rx = self.add_port("rx", self.inbox.append)


def test_component_registration_and_ports():
    sim = Simulator()
    c = _Probe(sim, "probe0")
    assert c.port("rx") is c.rx
    assert c.rx.full_name == "probe0.rx"
    with pytest.raises(ValueError):
        c.add_port("rx")  # duplicate name


def test_component_stats_are_namespaced():
    sim = Simulator()
    a, b = _Probe(sim, "a"), _Probe(sim, "b")
    a.stat("nic.rvma.tx_messages").add(2)
    b.stat("nic.rvma.tx_messages").add(5)
    assert a.stat("nic.rvma.tx_messages") is sim.stats.counter("nic.rvma.tx_messages", "a")
    assert sim.stats.instances("nic.rvma.tx_messages") == {"a": 2, "b": 5}


def test_port_without_handler_raises_on_delivery():
    sim = Simulator()
    a = _Probe(sim, "a")
    b = Component(sim, "bare")
    p = b.add_port("in")  # no handler installed
    Link(sim, a.rx, p, latency=1.0)
    a.rx.send("x")
    with pytest.raises(ValueError):
        sim.run()


def test_unknown_port_lookup_raises():
    sim = Simulator()
    c = _Probe(sim, "c")
    with pytest.raises(KeyError):
        c.port("nope")
