"""Motif framework: per-rank processes over a cluster + a protocol.

A motif (the paper's §V-B1 "behavioral representations of common
computation and communication patterns") spawns one simulated process
per rank.  Channel setup happens first, then an application-level
barrier, then the timed communication phase — so protocol *setup* costs
are reported separately from steady-state exchange costs, mirroring how
the paper separates Fig 6 (setup amortization) from Figs 7-8.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Generator

from ..cluster.builder import Cluster
from ..sim.process import Future, spawn
from .transfer import TransferProtocol


class SimBarrier:
    """An application-level barrier across rank processes.

    Zero simulated cost (represents e.g. MPI_Barrier done out-of-band
    before timing starts, as benchmarks do); processes ``yield
    barrier.wait()``.
    """

    def __init__(self, sim, parties: int) -> None:
        self.sim = sim
        self.parties = parties
        self._arrived = 0
        self._waiters: list[Future] = []
        self.generation = 0

    def wait(self) -> Future:
        """Arrive at the barrier; the future resolves when all have."""
        fut = Future(self.sim)
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1
            waiters, self._waiters = self._waiters, []
            for w in waiters:
                w.resolve(self.generation)
            fut.resolve(self.generation)
        else:
            self._waiters.append(fut)
        return fut


@dataclass
class MotifResult:
    """Outcome of one motif run."""

    motif: str
    protocol: str
    n_nodes: int
    #: Simulated ns from the post-setup barrier to the last rank finishing.
    elapsed: float
    #: Simulated ns spent in channel setup (start to barrier).
    setup_elapsed: float
    messages: int
    bytes_moved: int
    extras: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.setup_elapsed + self.elapsed


class Motif(ABC):
    """Base class: implement :meth:`setup_rank` and :meth:`run_rank`."""

    name = "motif"

    def __init__(self, cluster: Cluster, protocol: TransferProtocol) -> None:
        if cluster.nic_type != protocol.nic_type:
            raise ValueError(
                f"cluster has {cluster.nic_type} NICs but protocol "
                f"{protocol.name} needs {protocol.nic_type}"
            )
        self.cluster = cluster
        self.protocol = protocol
        self.sim = cluster.sim
        self.barrier = SimBarrier(self.sim, cluster.n_nodes)
        self._t_barrier = [0.0]
        self.messages = 0
        self.bytes_moved = 0

    # --- to implement -------------------------------------------------------------

    @abstractmethod
    def setup_rank(self, rank: int) -> Generator:
        """Create channels; resolves to per-rank state passed to run_rank."""

    @abstractmethod
    def run_rank(self, rank: int, state) -> Generator:
        """The timed communication phase for one rank."""

    # --- driver ----------------------------------------------------------------------

    def _rank_process(self, rank: int) -> Generator:
        state = yield from self.setup_rank(rank)
        yield self.barrier.wait()
        self._t_barrier[0] = max(self._t_barrier[0], self.sim.now)
        yield from self.run_rank(rank, state)

    def count_send(self, size: int) -> None:
        """Account one application-level message of *size* bytes."""
        self.messages += 1
        self.bytes_moved += size

    def run(self) -> MotifResult:
        """Execute all ranks to completion; verifies no rank deadlocked
        and no protocol integrity violations (NACKs) occurred."""
        procs = [
            spawn(self.sim, self._rank_process(r), f"{self.name}-rank{r}")
            for r in range(self.cluster.n_nodes)
        ]
        self.sim.run()
        unfinished = [p.name for p in procs if not p.finished]
        if unfinished:
            raise RuntimeError(
                f"{self.name}: {len(unfinished)} ranks deadlocked, e.g. {unfinished[:4]}"
            )
        self._check_integrity()
        setup = self._t_barrier[0]
        return MotifResult(
            motif=self.name,
            protocol=self.protocol.name,
            n_nodes=self.cluster.n_nodes,
            elapsed=self.sim.now - setup,
            setup_elapsed=setup,
            messages=self.messages,
            bytes_moved=self.bytes_moved,
        )

    #: When True, any NACK at all fails the run (sweeps/halos are sized
    #: so the bucket never underruns; a NACK there is a protocol bug).
    #: Incast relaxes this: transient NO_BUFFER NACKs are retried.
    strict_nacks = True

    def _check_integrity(self) -> None:
        fatal_keys = ("puts_lost", "writes_rejected", "recv_too_small", "rx_unknown_header")
        if self.strict_nacks:
            fatal_keys += ("nacks_", "puts_discarded")
        fatal = {
            f"{name}[{instance}]": c.value
            for (name, instance), c in self.sim.stats.counter_items()
            if c.value and any(f in name for f in fatal_keys)
        }
        if fatal:
            raise RuntimeError(f"{self.name}: data-loss indicators nonzero: {fatal}")
