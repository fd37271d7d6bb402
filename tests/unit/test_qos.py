"""Unit tests: multi-tenant QoS primitives (wire, bucket, DRR, admission).

The service-level isolation story is covered by the integration suite
(tests/integration/test_kv_qos.py) and the noisy-neighbor experiment;
this file pins the mechanism contracts each layer relies on.
"""

from __future__ import annotations

import pytest

from repro.observability import MetricsRegistry
from repro.services.qos import (
    AdmissionController,
    ClientRobustnessConfig,
    DeficitRoundRobin,
    QosConfig,
    TokenBucket,
)
from repro.services.tenancy import (
    PlacementQuota,
    TenantDirectory,
    TenantSpec,
    install_placement_quota,
)
from repro.services.wire import (
    DEFAULT_TENANT,
    OP_PUT,
    RequestDecoder,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_NAMES,
    STATUS_OVERLOAD,
    WireError,
    encode_request,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------- wire


def test_request_frame_round_trips_tenant_id():
    frame = encode_request(OP_PUT, 7, 42, b"key", b"value", tenant=513)
    (req,) = RequestDecoder().feed(frame)
    assert (req.op, req.client_id, req.req_id) == (OP_PUT, 7, 42)
    assert (req.key, req.value, req.tenant) == (b"key", b"value", 513)


def test_request_frame_defaults_to_default_tenant():
    (req,) = RequestDecoder().feed(encode_request(OP_PUT, 1, 1, b"k"))
    assert req.tenant == DEFAULT_TENANT


def test_tenant_id_must_fit_wire_field():
    with pytest.raises(WireError):
        encode_request(OP_PUT, 1, 1, b"k", tenant=1 << 16)


def test_qos_statuses_are_distinct_and_named():
    codes = {STATUS_OVERLOAD, STATUS_DEADLINE_EXCEEDED}
    assert len(codes) == 2
    for code in codes:
        assert code in STATUS_NAMES


# --------------------------------------------------------------- token bucket


def test_token_bucket_starts_full_and_depletes():
    bucket = TokenBucket(rate_per_ns=1.0, burst=100.0, now=0.0)
    assert bucket.try_take(100.0, now=0.0)
    assert not bucket.try_take(1.0, now=0.0)


def test_token_bucket_refills_at_rate_and_caps_at_burst():
    bucket = TokenBucket(rate_per_ns=0.5, burst=100.0, now=0.0)
    assert bucket.try_take(100.0, now=0.0)
    assert bucket.available(now=50.0) == pytest.approx(25.0)
    # A long idle period cannot bank more than one burst.
    assert bucket.available(now=10_000.0) == pytest.approx(100.0)


def test_token_bucket_failed_take_leaves_tokens_intact():
    bucket = TokenBucket(rate_per_ns=0.0, burst=10.0, now=0.0)
    assert not bucket.try_take(11.0, now=0.0)
    assert bucket.available(now=0.0) == pytest.approx(10.0)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_ns=-1.0, burst=10.0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_ns=1.0, burst=0.0)


# ------------------------------------------------------------------------ DRR


def test_drr_weighted_shares_over_backlogged_tenants():
    drr = DeficitRoundRobin(quantum=100)
    for i in range(200):
        drr.push(1, f"a{i}", cost=100, weight=3.0)
        drr.push(2, f"b{i}", cost=100, weight=1.0)
    drr.take(budget=20_000)
    served = drr.served_cost
    # Continuously backlogged 3:1 weights must serve ~3:1 bytes.
    assert served[1] / served[2] == pytest.approx(3.0, rel=0.15)


def test_drr_serves_item_larger_than_quantum():
    drr = DeficitRoundRobin(quantum=10)
    drr.push(1, "big", cost=1000)
    # Work conservation: the deficit accrues across ring visits inside
    # one take() call rather than returning empty forever.
    assert drr.take(budget=1) == ["big"]
    assert drr.pending_items == 0


def test_drr_budget_bounds_sweep_but_never_starves():
    drr = DeficitRoundRobin(quantum=100)
    for i in range(10):
        drr.push(1, i, cost=100)
    first = drr.take(budget=250)
    assert 1 <= len(first) <= 3
    assert drr.take(budget=None) == list(range(len(first), 10))
    assert (drr.pending_items, drr.pending_cost) == (0, 0)


def test_drr_idle_tenant_carries_no_credit():
    drr = DeficitRoundRobin(quantum=100)
    drr.push(1, "x", cost=100)
    assert drr.take() == ["x"]
    # After draining, the deficit resets: a returning tenant starts cold.
    drr.push(1, "y", cost=150)
    drr.push(2, "z", cost=100)
    assert set(drr.take()) == {"y", "z"}


def test_drr_validates_parameters():
    with pytest.raises(ValueError):
        DeficitRoundRobin(quantum=0)
    with pytest.raises(ValueError):
        DeficitRoundRobin().set_weight(1, 0.0)


# ------------------------------------------------------------------- tenancy


def test_tenant_spec_validates_id_and_weight():
    with pytest.raises(ValueError):
        TenantSpec(tenant_id=1 << 16)
    with pytest.raises(ValueError):
        TenantSpec(tenant_id=1, weight=0.0)


def test_tenant_directory_defaults_unknown_tenants_and_nodes():
    directory = TenantDirectory((TenantSpec(1, weight=2.0),))
    directory.assign_node(5, 1)
    assert directory.spec(1).weight == 2.0
    assert directory.spec(99) is directory.default_spec
    assert directory.tenant_of_node(5) == 1
    assert directory.tenant_of_node(6) == DEFAULT_TENANT


def test_placement_quota_meters_only_the_request_mailbox_slice():
    sim = Simulator()
    directory = TenantDirectory(
        (TenantSpec(1, nic_quota_bytes_per_us=1.0, nic_quota_burst_bytes=1000.0),)
    )
    directory.assign_node(3, 1)
    quota = PlacementQuota(sim, directory, mailbox_lo=100, mailbox_hi=200)
    # Outside the metered slice: always admitted, bucket untouched.
    assert quota.admit(src=3, mailbox=99, nbytes=10**9, now=0.0)
    assert quota.admit(src=3, mailbox=100, nbytes=1000, now=0.0)
    assert not quota.admit(src=3, mailbox=100, nbytes=1, now=0.0)
    assert MetricsRegistry.collect(sim).counters["service.kv.tenant.quota_rejects.t1"] == 1
    # Unassigned source nodes fall to the (unmetered) default tenant.
    assert quota.admit(src=4, mailbox=100, nbytes=10**9, now=0.0)


def test_install_placement_quota_attaches_to_the_nic():
    class _Nic:
        placement_quota = None

    class _Node:
        def __init__(self, sim):
            self.sim = sim
            self.nic = _Nic()

    node = _Node(Simulator())
    quota = install_placement_quota(
        node, TenantDirectory(), mailbox_lo=0, mailbox_hi=10
    )
    assert node.nic.placement_quota is quota


# ------------------------------------------------------------------ admission


def _admission(config=None, **spec_kw):
    sim = Simulator()
    directory = TenantDirectory((TenantSpec(1, **spec_kw),))
    return sim, AdmissionController(sim, directory, config)


def test_admission_unmetered_tenant_always_admits():
    sim, ctrl = _admission()
    assert all(ctrl.admit(DEFAULT_TENANT, 10**6) for _ in range(100))
    assert "service.kv.overload_replies" not in {
        k: v for k, v in MetricsRegistry.collect(sim).counters.items() if v
    }


def test_admission_sheds_over_rate_tenant_into_counters():
    sim, ctrl = _admission(admit_rate_bytes_per_us=1.0, admit_burst_bytes=100.0)
    assert ctrl.admit(1, 100)
    assert not ctrl.admit(1, 100)
    counters = MetricsRegistry.collect(sim).counters
    assert counters["service.kv.tenant.admitted.t1"] == 1
    assert counters["service.kv.tenant.shed.t1"] == 1
    assert counters["service.kv.overload_replies"] == 1
    # 1 B/us refills 100 B in 100 us of sim time.
    sim.now = 100_000.0
    assert ctrl.admit(1, 100)


def test_admission_overload_flag_multiplies_cost():
    config = QosConfig(
        slo_p99_ns=1000.0,
        min_overload_samples=4,
        overload_check_interval_ns=0.0,
        overload_shed_factor=10.0,
    )
    sim, ctrl = _admission(
        config, admit_rate_bytes_per_us=0.001, admit_burst_bytes=1000.0
    )
    for _ in range(8):
        ctrl.note_sojourn(50_000.0)  # p99 far above the 1 us SLO
    assert ctrl.admit(1, 100)  # charged 100 * 10 under overload
    assert ctrl.overloaded
    assert not ctrl.admit(1, 1)  # 10 effective > ~0 remaining
    counters = MetricsRegistry.collect(sim).counters
    assert counters["service.kv.tenant.shed.t1"] == 1
