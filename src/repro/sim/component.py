"""Component and port abstractions (the SST component model).

A :class:`Component` owns named :class:`Port` objects.  Ports are wired
together through links (:mod:`repro.sim.link`); delivering to a port
invokes the handler its component installed.  This mirrors how SST
elements exchange events and keeps NICs, switches and hosts decoupled.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .link import Link


class Port:
    """A named attachment point on a component.

    A port has at most one outgoing link and one receive handler.
    ``send`` pushes a payload onto the link; the link later calls the
    peer port's ``deliver``.
    """

    __slots__ = ("component", "name", "link", "handler")

    def __init__(self, component: "Component", name: str) -> None:
        self.component = component
        self.name = name
        self.link: Optional["Link"] = None
        self.handler: Optional[Callable[[Any], None]] = None

    @property
    def full_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    def set_handler(self, handler: Callable[[Any], None]) -> None:
        self.handler = handler

    def connect(self, link: "Link") -> None:
        if self.link is not None:
            raise ValueError(f"port {self.full_name} already connected")
        self.link = link

    def send(self, payload: Any, size_bytes: int = 0) -> None:
        """Transmit *payload* over the attached link."""
        if self.link is None:
            raise ValueError(f"port {self.full_name} is not connected")
        self.link.transmit(self, payload, size_bytes)

    def deliver(self, payload: Any) -> None:
        """Called by the link when a payload arrives at this port."""
        if self.handler is None:
            raise ValueError(f"port {self.full_name} has no handler")
        self.handler(payload)


class Component:
    """Base class for all simulated hardware/software elements.

    Subclasses create ports with :meth:`add_port` and schedule work via
    ``self.sim.schedule``.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[str, Port] = {}
        #: metric name -> Counter; skips the registry lookup on every
        #: stat() call (NIC fast paths bump several per packet).
        self._stat_cache: dict[str, Any] = {}

    def add_port(self, name: str, handler: Optional[Callable[[Any], None]] = None) -> Port:
        if name in self.ports:
            raise ValueError(f"duplicate port {name} on {self.name}")
        port = Port(self, name)
        if handler is not None:
            port.set_handler(handler)
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        return self.ports[name]

    def stat(self, name: str):
        """This component's instance of the catalog counter *name*."""
        c = self._stat_cache.get(name)
        if c is None:
            c = self._stat_cache[name] = self.sim.stats.counter(name, self.name)
        return c

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"
