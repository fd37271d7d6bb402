"""Unit tests for the component model (the SST element surface)."""

from repro.sim import Component, Simulator


def test_component_stats_are_namespaced():
    sim = Simulator()
    a, b = Component(sim, "a"), Component(sim, "b")
    a.stat("nic.rvma.tx_messages").add(2)
    b.stat("nic.rvma.tx_messages").add(5)
    assert a.stat("nic.rvma.tx_messages") is sim.stats.counter("nic.rvma.tx_messages", "a")
    assert sim.stats.instances("nic.rvma.tx_messages") == {"a": 2, "b": 5}
