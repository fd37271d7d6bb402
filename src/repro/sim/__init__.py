"""Discrete-event simulation kernel (the SST stand-in).

Public surface::

    from repro.sim import Simulator, Component, Link, SerializingLink
    from repro.sim import Future, AllOf, SimProcess, spawn
"""

from .component import Component, Port
from .engine import SimulationError, Simulator
from .event import Event, PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
from .link import Link, SerializingLink
from .process import AllOf, Future, SimProcess, spawn
from .rng import RngRegistry
from .stats import Counter, Histogram, StatsRegistry, Summary

__all__ = [
    "AllOf",
    "Component",
    "Counter",
    "Event",
    "Future",
    "Histogram",
    "Link",
    "Port",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "RngRegistry",
    "SerializingLink",
    "SimProcess",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Summary",
    "spawn",
]
