"""Multi-tenant QoS primitives for the KV service.

Three mechanisms compose into the isolation story (docs/QOS.md):

* **Token-bucket admission** (:class:`AdmissionController`) — every
  request is charged its frame bytes against its tenant's bucket
  *before* it touches the scheduler; over-rate requests are refused
  with an ``RC_OVERLOAD`` reply (``wire.STATUS_OVERLOAD``) instead of
  queueing, so a storming tenant pays for its own burst with cheap
  refusals rather than everyone's latency.
* **p99-driven load shedding** — the controller watches the scheduler
  sojourn histogram through the existing ``Histogram.percentile`` path;
  while the p99 sits above the SLO target, metered tenants' admission
  cost is multiplied (:attr:`QosConfig.overload_shed_factor`), which
  throttles them harder exactly when the service is drowning.
* **Deficit round-robin service** (:class:`DeficitRoundRobin`) — the
  KvServer sweep loop drains admitted requests in weighted-fair order
  instead of FIFO, so whatever backlog does form cannot be monopolised
  by one tenant's arrivals.

Client-side, :class:`ClientRobustnessConfig` arms the missing liveness
primitives on :class:`~repro.services.kv.KvClient`: per-request
deadlines, timeout → retry with exponential backoff + deterministic
jitter (the reliability layer's backoff idiom, same shape as
:class:`~repro.reliability.transport.ReliabilityConfig`), and deadline
propagation so retries never outlive the caller's budget.

Everything here is deterministic: token buckets refill lazily from sim
time, the scheduler is pure data structure, and client jitter draws
from a named RNG stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional


class TokenBucket:
    """Deterministic token bucket refilled lazily from sim time.

    Rates are tokens (bytes) per nanosecond; ``burst`` caps the credit
    a quiet tenant can accumulate.  All arithmetic is a pure function
    of (rate, burst, take history, now), so runs replay bit-identically.
    """

    __slots__ = ("rate_per_ns", "burst", "tokens", "stamp")

    def __init__(self, rate_per_ns: float, burst: float, now: float = 0.0) -> None:
        if rate_per_ns < 0 or burst <= 0:
            raise ValueError("token bucket needs rate >= 0 and burst > 0")
        self.rate_per_ns = rate_per_ns
        self.burst = burst
        self.tokens = burst  # start full: a tenant's first burst is free
        self.stamp = now

    def _refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate_per_ns)
            self.stamp = now

    def available(self, now: float) -> float:
        self._refill(now)
        return self.tokens

    def try_take(self, cost: float, now: float) -> bool:
        """Take *cost* tokens if available; False leaves the bucket unchanged."""
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class DeficitRoundRobin:
    """Work-conserving deficit round-robin across per-tenant queues.

    Classic DRR (Shreedhar & Varghese): each backlogged tenant sits in
    a service ring; a visit grants ``quantum * weight`` deficit, and
    the tenant dequeues head items while its deficit covers their cost.
    Guarantees (the hypothesis property test pins both):

    * **work conservation** — :meth:`take` never returns empty while
      :attr:`pending_items` > 0 (a deficit too small to serve the head
      item simply accrues across ring visits within the same call);
    * **bounded unfairness** — between two continuously backlogged
      equal-weight tenants, served-cost difference never exceeds
      ``quantum * weight + max_item_cost`` for any sweep-budget
      sequence: a budget-truncated visit resumes at the ring head
      without a fresh grant, so truncation neither robs a tenant's
      turn nor mints extra credit.
    """

    def __init__(self, quantum: int = 2048) -> None:
        if quantum < 1:
            raise ValueError("DRR quantum must be >= 1")
        self.quantum = quantum
        self._queues: dict[int, deque] = {}
        self._deficit: dict[int, float] = {}
        self._weight: dict[int, float] = {}
        self._ring: deque = deque()  # backlogged tenants in visit order
        self.pending_items = 0
        self.pending_cost = 0
        #: total cost served per tenant over the scheduler's lifetime
        #: (the unfairness bound is stated over this).
        self.served_cost: dict[int, int] = {}
        #: tenant whose visit a sweep budget cut short: the next sweep
        #: resumes it at the ring head *without* a fresh quantum grant,
        #: so truncation can neither rob a turn nor mint extra credit.
        self._resume: Optional[int] = None

    def set_weight(self, tenant: int, weight: float) -> None:
        if weight <= 0:
            raise ValueError("DRR weight must be > 0")
        self._weight[tenant] = weight

    def push(self, tenant: int, item: Any, cost: int, weight: Optional[float] = None) -> None:
        """Enqueue *item* for *tenant*; ``cost`` is its service charge (bytes)."""
        if weight is not None:
            self.set_weight(tenant, weight)
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        if not q:
            self._ring.append(tenant)
            self._deficit.setdefault(tenant, 0.0)
        q.append((item, cost))
        self.pending_items += 1
        self.pending_cost += cost

    def take(self, budget: Optional[int] = None) -> list:
        """Dequeue up to *budget* cost of items in weighted-fair order.

        Always serves at least one item when anything is pending (work
        conservation) — the budget bounds a sweep, it cannot starve it.
        """
        served: list = []
        served_cost = 0
        while self._ring and (budget is None or served_cost < budget or not served):
            tenant = self._ring[0]
            q = self._queues[tenant]
            if self._resume == tenant:
                self._resume = None  # continuing a truncated visit: no new grant
            else:
                self._deficit[tenant] += self.quantum * self._weight.get(tenant, 1.0)
            while q and self._deficit[tenant] >= q[0][1]:
                item, cost = q.popleft()
                self._deficit[tenant] -= cost
                self.pending_items -= 1
                self.pending_cost -= cost
                self.served_cost[tenant] = self.served_cost.get(tenant, 0) + cost
                served.append(item)
                served_cost += cost
                if budget is not None and served_cost >= budget:
                    break
            if q and self._deficit[tenant] >= q[0][1]:
                # The budget cut this visit short of its earned credit:
                # stay at the ring head and finish the visit next sweep.
                self._resume = tenant
                break
            self._ring.popleft()
            if q:
                self._ring.append(tenant)  # still backlogged: next round
            else:
                self._deficit[tenant] = 0.0  # idle tenants carry no credit
        return served


@dataclass
class QosConfig:
    """Server-side QoS tuning (admission + shedding).

    The DRR sweep's quantum and byte budget are ``repro.services.kv``'s
    ``DRR_QUANTUM_BYTES`` and ``SWEEP_BUDGET_BYTES``.
    """

    #: SLO target: scheduler-sojourn p99 above this flips overload on.
    slo_p99_ns: float = 150_000.0
    #: Overload re-evaluation cadence (percentile() is not free).
    overload_check_interval_ns: float = 20_000.0
    #: Admission-cost multiplier applied to metered tenants while the
    #: sojourn p99 violates the SLO (throttles them harder under load).
    overload_shed_factor: float = 8.0
    #: Sojourn samples required before shedding can trigger.
    min_overload_samples: int = 32


#: ``service.kv.queue_sojourn_ns`` binning: 250 ns resolution to 500 µs.
SOJOURN_HI_NS = 500_000.0
SOJOURN_NBINS = 2000


class AdmissionController:
    """Per-tenant token-bucket admitter with p99-driven shedding.

    ``directory`` is a :class:`~repro.services.tenancy.TenantDirectory`
    (duck-typed: anything with ``spec(tenant_id)``).  One controller
    serves all of a node's shards — admission is a per-tenant, not
    per-shard, contract.
    """

    def __init__(self, sim, directory, config: Optional[QosConfig] = None) -> None:
        self.sim = sim
        self.directory = directory
        self.config = config or QosConfig()
        self._buckets: dict[int, TokenBucket] = {}
        self._admitted: dict[int, Any] = {}
        self._shed: dict[int, Any] = {}
        self._served: dict[int, Any] = {}
        self.overloaded = False
        self._next_check = 0.0
        self._checked_count = 0
        self._overload_span = None
        stats = sim.stats
        self._sojourn = stats.histogram(
            "service.kv.queue_sojourn_ns", lo=0.0, hi=SOJOURN_HI_NS, nbins=SOJOURN_NBINS
        )
        self._overload_replies = stats.counter("service.kv.overload_replies")

    # ------------------------------------------------------------- counters

    def _tenant_counter(self, cache: dict, family: str, tenant: int):
        c = cache.get(tenant)
        if c is None:
            c = cache[tenant] = self.sim.stats.counter(f"service.kv.tenant.{family}.t{tenant}")
        return c

    # ------------------------------------------------------------- admission

    def _bucket(self, tenant: int) -> Optional[TokenBucket]:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            spec = self.directory.spec(tenant)
            if spec.admit_rate_bytes_per_us <= 0:
                return None  # unmetered tenant
            bucket = self._buckets[tenant] = TokenBucket(
                spec.admit_rate_bytes_per_us / 1000.0,
                spec.admit_burst_bytes,
                now=self.sim.now,
            )
        return bucket

    def admit(self, tenant: int, cost: int) -> bool:
        """Charge *cost* bytes to *tenant*; False means shed (RC_OVERLOAD)."""
        now = self.sim.now
        self._maybe_recheck(now)
        spec = self.directory.spec(tenant)
        bucket = self._bucket(tenant) if spec.admit_rate_bytes_per_us > 0 else None
        ok = True
        if bucket is not None:
            eff = cost * (self.config.overload_shed_factor if self.overloaded else 1.0)
            ok = bucket.try_take(eff, now)
        if ok:
            self._tenant_counter(self._admitted, "admitted", tenant).add()
        else:
            self._tenant_counter(self._shed, "shed", tenant).add()
            self._overload_replies.add()
        return ok

    def note_served(self, tenant: int, cost: int) -> None:
        self._tenant_counter(self._served, "served_bytes", tenant).add(cost)

    def note_sojourn(self, sojourn_ns: float) -> None:
        self._sojourn.add(sojourn_ns)

    # ------------------------------------------------------------- shedding

    def _maybe_recheck(self, now: float) -> None:
        if now < self._next_check:
            return
        self._next_check = now + self.config.overload_check_interval_ns
        # Only fresh samples since the last check should decide the flag;
        # a bounded window avoids an early spike pinning overload forever.
        fresh = self._sojourn.count - self._checked_count
        if fresh < self.config.min_overload_samples:
            return
        self._checked_count = self._sojourn.count
        p99 = self._sojourn.percentile(0.99)
        overloaded = p99 > self.config.slo_p99_ns
        if overloaded == self.overloaded:
            return
        self.overloaded = overloaded
        spans = self.sim.spans
        if overloaded:
            if spans.active and spans.wants("qos"):
                self._overload_span = spans.begin(
                    "qos", "overload_window", p99_ns=round(p99)
                )
        elif self._overload_span is not None:
            spans.end(self._overload_span, p99_ns=round(p99))
            self._overload_span = None


@dataclass
class ClientRobustnessConfig:
    """Client-side deadlines + timeout/retry/backoff (liveness armor).

    Mirrors the reliability layer's backoff idiom
    (:class:`~repro.reliability.transport.ReliabilityConfig`): timeout
    doubles per retry up to a cap, with deterministic jitter drawn from
    the named ``kv.client.jitter`` RNG stream (the growth factor, cap,
    jitter fraction and poll interval are ``repro.services.kv``'s
    ``CLIENT_*`` constants).  Every attempt's wait is
    clamped to the request's absolute deadline, so retries never
    outlive the caller's budget; at the deadline the request resolves
    locally as ``STATUS_DEADLINE_EXCEEDED``.
    """

    #: First-attempt reply timeout before a retransmission.
    request_timeout_ns: float = 60_000.0
    #: Retransmissions per request (after this, wait out the deadline).
    max_retries: int = 6
    #: Per-request budget when the caller does not pass one.
    default_deadline_ns: float = 5_000_000.0
