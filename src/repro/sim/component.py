"""Component abstraction (the SST component model, minus wiring).

A :class:`Component` is a named simulated element bound to one
:class:`~repro.sim.engine.Simulator`: it schedules work on the engine
and owns the per-instance metrics it reports under its name.  NICs and
fabrics are components; they exchange traffic through the fabric's
``send``/``attach`` interface rather than through wired ports.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator


class Component:
    """Base class for all simulated hardware/software elements.

    Subclasses schedule work via ``self.sim`` and count events with
    :meth:`stat`.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        #: metric name -> Counter; skips the registry lookup on every
        #: stat() call (NIC fast paths bump several per packet).
        self._stat_cache: dict[str, Any] = {}

    def stat(self, name: str):
        """This component's instance of the catalog counter *name*."""
        c = self._stat_cache.get(name)
        if c is None:
            c = self._stat_cache[name] = self.sim.stats.counter(name, self.name)
        return c

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"
