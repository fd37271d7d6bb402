"""Tenant identity, per-tenant policy, and the NIC placement quota.

A *tenant* is the unit of isolation for the multi-tenant KV service:
every request frame carries its tenant id (``wire`` u16 field), and
three enforcement points key off the :class:`TenantSpec` registered
here — the NIC placement quota (this module), the token-bucket
admitter and the weighted-fair scheduler (:mod:`repro.services.qos`).

The :class:`PlacementQuota` is the NIC-boundary half: it installs onto
``BaseNic.placement_quota`` (a duck-typed hook — the NIC layer never
imports services) and meters inbound put bytes per *source-node
tenant* against a token bucket before any buffer is touched.  A
rejection is **reject-into-counter, not silent drop**: the NIC NACKs
``QUOTA`` (non-retryable at the NIC — the client's backoff loop, not
the put-retry machinery, is the recovery path) and both the NIC-level
and per-tenant counters record it.

Tenant membership is by source node: simulated NICs know the sending
node id, not the request framing, so the quota maps ``src node →
tenant`` via :meth:`TenantDirectory.assign_node`.  Unassigned nodes
fall to the default tenant (unmetered unless given a spec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .qos import TokenBucket
from .wire import DEFAULT_TENANT


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and resource policy.

    Rates are bytes per microsecond; a rate of 0 means *unmetered* at
    that enforcement point.  ``weight`` is the DRR share (relative to
    other tenants' weights).
    """

    tenant_id: int
    name: str = ""
    #: Weighted-fair scheduler share.
    weight: float = 1.0
    #: Token-bucket admission rate at the KvServer (0 = unmetered).
    admit_rate_bytes_per_us: float = 0.0
    #: Admission bucket depth (burst tolerance).
    admit_burst_bytes: float = 8192.0
    #: NIC placement quota rate (0 = no NIC-boundary metering).
    nic_quota_bytes_per_us: float = 0.0
    #: NIC quota bucket depth.
    nic_quota_burst_bytes: float = 16384.0

    def __post_init__(self) -> None:
        if not 0 <= self.tenant_id <= 0xFFFF:
            raise ValueError("tenant id must fit the u16 wire field")
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")


class TenantDirectory:
    """Registry of tenant specs plus the src-node → tenant mapping."""

    def __init__(self, tenants: tuple = (), default: Optional[TenantSpec] = None) -> None:
        self.default_spec = default or TenantSpec(DEFAULT_TENANT, name="default")
        self._specs: dict[int, TenantSpec] = {self.default_spec.tenant_id: self.default_spec}
        self._node_tenant: dict[int, int] = {}
        for spec in tenants:
            self.add(spec)

    def add(self, spec: TenantSpec) -> TenantSpec:
        self._specs[spec.tenant_id] = spec
        return spec

    def spec(self, tenant_id: int) -> TenantSpec:
        """Spec for *tenant_id*; unknown tenants get the default policy."""
        return self._specs.get(tenant_id, self.default_spec)

    # ------------------------------------------------------------- membership

    def assign_node(self, node_id: int, tenant_id: int) -> None:
        """Declare that clients on *node_id* belong to *tenant_id*."""
        self._node_tenant[node_id] = tenant_id

    def tenant_of_node(self, node_id: int) -> int:
        return self._node_tenant.get(node_id, DEFAULT_TENANT)


class PlacementQuota:
    """Per-tenant byte metering at the NIC placement boundary.

    Installed as ``nic.placement_quota``; the RVMA NIC consults
    :meth:`admit` after PCIe admission and before any buffer write.
    Only mailboxes inside ``[mailbox_lo, mailbox_hi)`` are metered
    (the KV request-stream slice), so reply traffic, control planes
    and unrelated mailboxes are never taxed.
    """

    def __init__(
        self,
        sim,
        directory: TenantDirectory,
        mailbox_lo: int = 0,
        mailbox_hi: int = 1 << 48,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.mailbox_lo = mailbox_lo
        self.mailbox_hi = mailbox_hi
        self._buckets: dict[int, Optional[TokenBucket]] = {}
        self._reject_counters: dict[int, object] = {}

    def _bucket(self, tenant: int) -> Optional[TokenBucket]:
        if tenant not in self._buckets:
            spec = self.directory.spec(tenant)
            self._buckets[tenant] = (
                TokenBucket(
                    spec.nic_quota_bytes_per_us / 1000.0,
                    spec.nic_quota_burst_bytes,
                    now=self.sim.now,
                )
                if spec.nic_quota_bytes_per_us > 0
                else None
            )
        return self._buckets[tenant]

    def admit(self, src: int, mailbox: int, nbytes: int, now: float) -> bool:
        """Whether *nbytes* from node *src* may be placed into *mailbox*."""
        if not self.mailbox_lo <= mailbox < self.mailbox_hi:
            return True
        tenant = self.directory.tenant_of_node(src)
        bucket = self._bucket(tenant)
        if bucket is None or bucket.try_take(nbytes, now):
            return True
        counter = self._reject_counters.get(tenant)
        if counter is None:
            counter = self._reject_counters[tenant] = self.sim.stats.counter(
                f"service.kv.tenant.quota_rejects.t{tenant}"
            )
        counter.add()
        return False


def install_placement_quota(
    node,
    directory: TenantDirectory,
    mailbox_lo: int,
    mailbox_hi: int,
) -> PlacementQuota:
    """Attach a :class:`PlacementQuota` to *node*'s NIC; returns it."""
    quota = PlacementQuota(node.sim, directory, mailbox_lo, mailbox_hi)
    node.nic.placement_quota = quota
    return quota
