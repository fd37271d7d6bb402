"""Open/closed-loop load generation for the KV service.

Arrivals, op mix and key popularity all draw from *named* RNG streams
(:mod:`repro.sim.rng`), so a workload is a pure function of the
simulator seed — the property every differential and regression test
here relies on.

Key popularity follows a Zipf(s) distribution over a fixed keyspace
(``s = 0`` degenerates to uniform).  Keys hash to shards via
``stable_hash64``, so hot keys land on effectively random shards and
skew shows up as per-shard load imbalance, the way it does in
production key-value fleets.

Two driving modes:

* **closed** — each client keeps ``batch`` requests in flight
  back-to-back: throughput-bound, exercises server-side reply batching;
* **open** — requests arrive by an exponential arrival process
  independent of service times and queue for a free client; latency is
  measured from the *intended arrival*, so queueing delay counts (the
  honest way to measure a service under offered load).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..sim.process import AllOf, spawn
from .kv import KvClient
from .wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOAD,
)


def idle_poll_delay(now: float, poll: float, work_at: float) -> float:
    """How long an idle worker that polls every *poll* ns sleeps.

    No new work can appear before *work_at*, so every poll before then
    would find nothing.  The worker skips them: it sleeps straight to
    the last poll tick before ``work_at - 1`` and polls every *poll* ns
    from there.  Ticks are the ones repeated ``now + poll`` additions
    give, and the delay is nudged until ``now + delay`` lands exactly on
    one, so every later tick, the one that finds work included, falls
    where it always did.  With no tick to skip this is *poll*, and so it
    is when rounding leaves the tick with no such delay: the worker
    polls once and skips from the next tick instead.
    """
    limit = work_at - 1.0
    tick = now + poll
    if tick >= limit:
        return poll
    nxt = tick + poll
    while nxt < limit:
        tick = nxt
        nxt = tick + poll
    delay = tick - now
    while now + delay < tick:
        delay = math.nextafter(delay, math.inf)
    while now + delay > tick:
        delay = math.nextafter(delay, -math.inf)
    return delay if now + delay == tick else poll


class ZipfSampler:
    """Zipf(s) over ``n_keys`` ranks via inverse-CDF table lookup."""

    def __init__(self, n_keys: int, s: float = 0.0) -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        if s < 0:
            raise ValueError("zipf skew must be >= 0")
        self.n_keys = n_keys
        self.s = s
        weights = [1.0 / (rank ** s) for rank in range(1, n_keys + 1)]
        total = sum(weights)
        cum = 0.0
        self._cdf: list[float] = []
        for w in weights:
            cum += w / total
            self._cdf.append(cum)
        self._cdf[-1] = 1.0  # guard float drift

    def sample(self, u: float) -> int:
        """Rank (0-based key index) for a uniform draw ``u in [0, 1)``."""
        return bisect_left(self._cdf, u)


@dataclass
class WorkloadConfig:
    """One KV workload's shape."""

    n_ops: int = 200
    n_keys: int = 128
    value_bytes: int = 64
    #: Zipf skew (0 = uniform key popularity).
    zipf_s: float = 0.0
    #: Op mix; the remainder after get+put is split delete-heavy.
    get_frac: float = 0.55
    put_frac: float = 0.40
    #: ``closed`` or ``open``.
    mode: str = "closed"
    #: Requests pipelined per closed-loop issue (drives reply batching).
    batch: int = 1
    #: Mean exponential interarrival for open-loop mode.
    mean_interarrival_ns: float = 4000.0
    #: Idle-client poll interval for the open-loop work queue (an idle
    #: client skips the polls before the next drawn arrival).
    worker_poll_ns: float = 500.0
    #: Open-loop backlog cap: arrivals beyond this many queued ops are
    #: dropped (and counted) instead of growing the deque without bound
    #: — an overloaded open-loop run degrades, it does not eat memory.
    max_backlog: int = 1024
    #: Per-op deadline budget handed to robust clients (None = client
    #: default; ignored by clients without a robustness config).
    deadline_ns: Optional[float] = None
    rng_stream: str = "kv-load"


@dataclass
class LoadStats:
    """What one workload run issued and observed.

    Every issued op resolves into exactly one bucket: completed-ok,
    failed, overload (RC_OVERLOAD reply), deadline-exceeded, or dropped
    at the generator backlog — :meth:`all_resolved` is the no-op-stalls
    liveness check the QoS experiments assert.
    """

    ops_issued: int = 0
    ops_completed: int = 0
    ops_failed: int = 0
    #: RC_OVERLOAD resolutions (shed by server admission control).
    ops_overload: int = 0
    #: Client-side deadline-exceeded resolutions.
    ops_deadline: int = 0
    #: Arrivals dropped at the open-loop backlog cap.
    ops_dropped: int = 0
    by_op: dict = field(default_factory=dict)

    def note(self, op: int, status: int) -> None:
        self.by_op[op] = self.by_op.get(op, 0) + 1
        self.ops_completed += 1
        if status == STATUS_OVERLOAD:
            self.ops_overload += 1
        elif status == STATUS_DEADLINE_EXCEEDED:
            self.ops_deadline += 1
        elif not (status == STATUS_OK or (status == STATUS_NOT_FOUND and op != OP_PUT)):
            self.ops_failed += 1

    def all_resolved(self) -> bool:
        """True when every issued op reached a terminal resolution."""
        return self.ops_issued == self.ops_completed + self.ops_dropped


class LoadGenerator:
    """Drives a pool of :class:`KvClient` endpoints through a workload.

    Latencies land in the shared ``service.kv.request_latency_ns``
    histogram (clients record them); this class owns arrival timing,
    op/key sampling and pool scheduling.
    """

    def __init__(self, sim, clients: list[KvClient], config: Optional[WorkloadConfig] = None) -> None:
        if not clients:
            raise ValueError("load generator needs at least one client")
        if config is not None and config.max_backlog < 1:
            # max_backlog < 1 silently drops *every* open-loop arrival
            # (the cap check runs before the append) — reject it rather
            # than run a workload that offers nothing.
            raise ValueError(f"max_backlog must be >= 1, got {config.max_backlog}")
        self.sim = sim
        self.clients = clients
        self.config = config or WorkloadConfig()
        self.stats = LoadStats()
        self.sampler = ZipfSampler(self.config.n_keys, self.config.zipf_s)
        self._dropped = sim.stats.counter("service.kv.client.backlog_dropped")
        self._seq = 0

    # ------------------------------------------------------------------ sampling

    def key_bytes(self, rank: int) -> bytes:
        return b"k%06d" % rank

    def _sample_op(self) -> tuple[int, bytes, bytes]:
        cfg = self.config
        rng = self.sim.rng
        u_op = rng.random(cfg.rng_stream + ".op")
        rank = self.sampler.sample(rng.random(cfg.rng_stream + ".key"))
        key = self.key_bytes(rank)
        self._seq += 1
        if u_op < cfg.get_frac:
            return OP_GET, key, b""
        if u_op < cfg.get_frac + cfg.put_frac:
            # Deterministic, self-describing value bytes: checkable by
            # tests and unique-ish per (key, issue sequence).
            fill = (rank * 131 + self._seq) % 251 + 1
            value = bytes([fill]) * cfg.value_bytes
            return OP_PUT, key, value
        return OP_DELETE, key, b""

    def _interarrival(self) -> float:
        u = self.sim.rng.random(self.config.rng_stream + ".arrival")
        # Inverse-CDF exponential; clamp u away from 0 to bound the tail.
        return -self.config.mean_interarrival_ns * math.log(max(u, 1e-12))

    # ------------------------------------------------------------------ driving

    def run(self) -> Generator:
        """Drive the configured workload to completion; returns stats."""
        if self.config.mode == "closed":
            yield from self._run_closed()
        elif self.config.mode == "open":
            yield from self._run_open()
        else:
            raise ValueError(f"unknown load mode {self.config.mode!r}")
        return self.stats

    def _run_closed(self) -> Generator:
        cfg = self.config
        share, extra = divmod(cfg.n_ops, len(self.clients))
        procs = []
        for i, client in enumerate(self.clients):
            quota = share + (1 if i < extra else 0)
            if quota:
                procs.append(
                    spawn(self.sim, self._closed_worker(client, quota), name=f"kv-load{i}")
                )
        if procs:
            yield AllOf(procs)

    def _closed_worker(self, client: KvClient, quota: int) -> Generator:
        left = quota
        while left > 0:
            batch = [self._sample_op() for _ in range(min(self.config.batch, left))]
            self.stats.ops_issued += len(batch)
            replies = yield from client.execute_batch(
                batch, deadline_ns=self.config.deadline_ns
            )
            for (op, _k, _v), reply in zip(batch, replies):
                self.stats.note(op, reply.status)
            left -= len(batch)

    def _run_open(self) -> Generator:
        cfg = self.config
        backlog: deque = deque()
        done = [False]
        # When the arrival drawn last lands: no work appears before it.
        arrival = [0.0]
        workers = [
            spawn(
                self.sim, self._open_worker(client, backlog, done, arrival),
                name=f"kv-open{i}",
            )
            for i, client in enumerate(self.clients)
        ]
        for _ in range(cfg.n_ops):
            gap = self._interarrival()
            arrival[0] = self.sim.now + gap
            yield gap
            self.stats.ops_issued += 1
            if len(backlog) >= cfg.max_backlog:
                # Offered load has outrun the pool for max_backlog ops:
                # shed at the generator rather than queueing unboundedly.
                # A dropped arrival consumes only the .arrival RNG draw
                # (no .op/.key draws), so the synthesized op stream
                # depends on backlog depth and hence on service timing —
                # the reason cross-variant comparisons replay a recorded
                # trace (repro.workloads) instead of re-synthesizing.
                self.stats.ops_dropped += 1
                self._dropped.add()
                continue
            backlog.append((self._sample_op(), self.sim.now))
        done[0] = True
        yield AllOf(workers)

    def _open_worker(
        self, client: KvClient, backlog: deque, done: list, arrival: list
    ) -> Generator:
        while True:
            if backlog:
                (op, key, value), arrived = backlog.popleft()
                replies = yield from client.execute_batch(
                    [(op, key, value)], t0=arrived, deadline_ns=self.config.deadline_ns
                )
                self.stats.note(op, replies[0].status)
            elif done[0]:
                return
            else:
                yield idle_poll_delay(self.sim.now, self.config.worker_poll_ns, arrival[0])
