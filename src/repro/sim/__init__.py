"""Discrete-event simulation kernel (the SST stand-in).

Public surface::

    from repro.sim import Simulator, Component
    from repro.sim import Future, AllOf, SimProcess, spawn
"""

from .component import Component
from .engine import SimulationError, Simulator
from .event import Event, PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
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
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "RngRegistry",
    "SimProcess",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Summary",
    "spawn",
]
