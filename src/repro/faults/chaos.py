"""Chaos schedules: randomized-but-deterministic composed fault plans.

A :class:`ChaosSchedule` is a reproducible plan of scheduled fault
windows (link flaps, switch failures, partitions) plus optional
background i.i.d. loss, generated from the simulator's named RNG
streams — so a (seed, parameters) pair always produces the identical
schedule, and chaos test failures replay exactly.

Windows are bounded: every generated window is capped at
``max_window_ns`` so that a reliability transport with a sane retry
budget (backoff coverage exceeding the longest window) can always
deliver eventually.  That is the invariant the chaos harness asserts:
*no put is lost within the retry budget*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.builder import Cluster
from .injectors import FaultInjector


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault."""

    kind: str  # "link_flap" | "switch_failure" | "partition" | "crash_restart"
    start: float
    end: float  # crash_restart: the restart time
    params: tuple  # kind-specific: link (u, v), switch (id,), partition/crash (nodes...)

    def describe(self) -> str:
        if self.kind == "link_flap":
            u, v = self.params
            tgt = f"sw{u}<->sw{v}"
        elif self.kind == "switch_failure":
            tgt = f"sw{self.params[0]}"
        elif self.kind == "crash_restart":
            return (
                f"crash_restart node {self.params[0]} crash@{self.start:.0f}ns "
                f"restart@{self.end:.0f}ns"
            )
        else:
            tgt = "nodes {" + ",".join(str(p) for p in self.params) + "}"
        return f"{self.kind} {tgt} @ [{self.start:.0f}, {self.end:.0f})ns"


#: Fault-window kinds a generated plan draws from by default.
WINDOW_KINDS = ("link_flap", "switch_failure", "partition")
#: Shortest fault window and the crash-restart shape every plan uses.
MIN_WINDOW_NS = 5_000.0
CRASH_MIN_START_NS = 40_000.0
CRASH_WINDOW_NS = (15_000.0, 40_000.0)


def sample_crashes(rng, stream: str, n_nodes: int, horizon_ns: float, n_crashes: int) -> list:
    """*n_crashes* crash-restart events drawn from the ``{stream}.*`` streams.

    A random node crash-stops no earlier than :data:`CRASH_MIN_START_NS`
    (so recovery checkpoints have had time to exist) and restarts after
    a down time drawn from :data:`CRASH_WINDOW_NS`.  Down times stay
    inside the reliability layer's retry-budget coverage, like fabric
    fault windows.
    """
    events = []
    for _ in range(n_crashes):
        node = rng.choice(f"{stream}.node", n_nodes)
        lo, hi = CRASH_WINDOW_NS
        down = lo + rng.random(f"{stream}.len") * (hi - lo)
        span = max(horizon_ns - CRASH_MIN_START_NS - down, 0.0)
        start = CRASH_MIN_START_NS + rng.random(f"{stream}.start") * span
        events.append(
            ChaosEvent(kind="crash_restart", start=start, end=start + down, params=(node,))
        )
    return events


def sample_windows(
    rng,
    stream: str,
    topology,
    horizon_ns: float,
    n_events: int,
    max_window_ns: float,
    kinds: tuple,
) -> list:
    """*n_events* fault windows against *topology*, from the ``{stream}.*`` streams.

    Each window lasts between :data:`MIN_WINDOW_NS` and *max_window_ns*.
    A kind the topology cannot host (no links, a single switch) falls
    back to a one-node partition.
    """
    if max_window_ns < MIN_WINDOW_NS:
        raise ValueError("max_window_ns must be >= MIN_WINDOW_NS")
    links = sorted({tuple(sorted(l)) for l in topology.links()})
    events = []
    for _ in range(n_events):
        kind = kinds[rng.choice(f"{stream}.kind", len(kinds))]
        span = MIN_WINDOW_NS + rng.random(f"{stream}.len") * (max_window_ns - MIN_WINDOW_NS)
        start = rng.random(f"{stream}.start") * max(horizon_ns - span, 0.0)
        if kind == "link_flap" and links:
            params = links[rng.choice(f"{stream}.link", len(links))]
        elif kind == "switch_failure" and topology.n_switches > 1:
            params = (rng.choice(f"{stream}.switch", topology.n_switches),)
        else:
            # Partition a single random node away from the rest: the
            # smallest cut that still severs real traffic.
            kind = "partition"
            params = (rng.choice(f"{stream}.node", topology.n_nodes),)
        events.append(ChaosEvent(kind=kind, start=start, end=start + span, params=params))
    return events


@dataclass
class ChaosSchedule:
    """A composed fault plan applied through one :class:`FaultInjector`."""

    events: list[ChaosEvent] = field(default_factory=list)
    drop_prob: float = 0.0

    @classmethod
    def generate(
        cls,
        cluster: Cluster,
        horizon_ns: float,
        n_events: int = 4,
        max_window_ns: float = 60_000.0,
        drop_prob: float = 0.0,
        kinds: tuple = WINDOW_KINDS,
        n_crashes: int = 0,
    ) -> "ChaosSchedule":
        """Draw a random schedule from the cluster's named RNG streams.

        Deterministic per (simulator seed, parameters); the same
        cluster seed always suffers the same chaos.  ``n_crashes`` adds
        crash-restart events (:func:`sample_crashes`, streams
        ``chaos.crash.*``) ahead of the fault windows
        (:func:`sample_windows`, streams ``chaos.*``).
        """
        rng = cluster.sim.rng
        events = sample_crashes(rng, "chaos.crash", cluster.n_nodes, horizon_ns, n_crashes)
        events += sample_windows(
            rng, "chaos", cluster.topology, horizon_ns, n_events, max_window_ns, kinds
        )
        events.sort(key=lambda e: e.start)
        return cls(events=events, drop_prob=drop_prob)

    def apply(self, injector: FaultInjector) -> FaultInjector:
        """Install every planned fault on *injector* (chains with any
        faults it already carries)."""
        for ev in self.events:
            if ev.kind == "link_flap":
                injector.flap_link(ev.params[0], ev.params[1], [(ev.start, ev.end)])
            elif ev.kind == "switch_failure":
                injector.fail_switch(ev.params[0], ev.start, ev.end)
            elif ev.kind == "crash_restart":
                injector.crash_restart(ev.params[0], ev.start, ev.end)
            else:
                injector.partition(ev.params, ev.start, ev.end)
        if self.drop_prob:
            injector.drop_messages(self.drop_prob)
        return injector

    def describe(self) -> list[str]:
        lines = [ev.describe() for ev in self.events]
        if self.drop_prob:
            lines.append(f"background drop probability {self.drop_prob:.0%}")
        return lines
