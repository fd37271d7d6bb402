"""Integration: KV service over active mailboxes (PR 9 tentpole).

Dual-path conformance against a live server: the same scripted workload
runs once with the NIC-side GET short-circuit armed and once without,
and every client-visible reply must be byte-identical — the active path
is an optimization, never a semantic change (FIFO servers; see
docs/QOS.md for the out-of-order caveat).  Plus the host-dispatch
saving the handler exists to buy, the stale handler-served reply
accounting fix, and the flash-crowd contrast cell.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core.api import RvmaApi
from repro.experiments.active_flash import run_flash_chaos, run_flash_crowd
from repro.experiments.kv_cell import FlapPlan
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.services import (
    KvClient,
    KvServer,
    KvServerConfig,
    LoadGenerator,
    ShardMap,
)
from repro.services.wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    STATUS_HANDLER_FLAG,
    STATUS_OK,
    encode_reply,
)
from repro.sim.process import spawn

HOT = (b"hot-a", b"hot-b")
COLD = (b"cold-x", b"cold-y")


def _script():
    """A deterministic op script that crosses every handler decision:
    cold-view GETs, clean serves, GETs behind unsynced writes, deletes
    on hot keys and misses."""
    ops = []
    for i, key in enumerate((*HOT, *COLD)):
        ops.append((OP_PUT, key, b"v0-%d" % i))
    for _ in range(3):
        ops += [(OP_GET, key, b"") for key in (*HOT, *COLD)]
    ops.append((OP_PUT, HOT[0], b"v1-rewrite"))
    ops += [(OP_GET, key, b"") for key in HOT]
    ops.append((OP_DELETE, HOT[1], b""))
    ops += [(OP_GET, key, b"") for key in (*HOT, b"missing")]
    for _ in range(2):
        ops += [(OP_GET, HOT[0], b"")]
    return ops


def _run_kv(active: bool):
    """One scripted run; returns (replies, final_stores, counters)."""
    cluster = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", seed=7,
    )
    shard_map = ShardMap([0], 2)
    cfg = KvServerConfig(hot_keys=HOT if active else ())
    server = KvServer(cluster.nodes[0], shard_map, config=cfg).start()
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, index=0)
    out = {}

    def driver():
        yield from client.open()
        replies = []
        # One op per batch: a FIFO stream point the oracle can replay.
        for op in _script():
            batch = yield from client.execute_batch([op])
            replies.extend((r.status, r.payload) for r in batch)
        out["replies"] = replies
        server.stop()

    proc = spawn(cluster.sim, driver(), "driver")
    cluster.sim.run(until=50_000_000.0)
    assert proc.finished
    reg = MetricsRegistry.collect(cluster.sim)
    assert reg.undocumented() == []
    stores = {k: dict(v) for k, v in server.stores.items()}
    return out["replies"], stores, reg.counters


def test_active_replies_byte_identical_to_host_dispatch():
    """The conformance oracle: active-on == active-off, reply for reply."""
    replies_off, stores_off, counters_off = _run_kv(active=False)
    replies_on, stores_on, counters_on = _run_kv(active=True)
    assert replies_on == replies_off  # status AND payload, frame for frame
    assert stores_on == stores_off
    # The handler actually fired and every served GET is one host
    # dispatch the sweep loop never saw.
    served = counters_on["nic.rvma.active.served"]
    assert served > 0
    assert counters_off.get("nic.rvma.active.served", 0) == 0
    saving = counters_off["service.kv.requests"] - counters_on["service.kv.requests"]
    assert saving == served
    assert counters_on["service.kv.client.handler_served"] == served
    # Writes on hot keys synced the view (execute path) at least once.
    assert counters_on["nic.rvma.active.kv_syncs"] >= 3


def test_hot_key_get_is_actually_short_circuited():
    """≥1 fewer host dispatch per clean hot-key GET (the acceptance bar)."""
    _, _, counters = _run_kv(active=True)
    script = _script()
    hot_gets = sum(1 for op, key, _v in script if op == OP_GET and key in HOT)
    served = counters["nic.rvma.active.served"]
    # Not every hot GET is serveable (cold view before the first PUT
    # executes, dirty window behind writes, deleted key) — but the
    # steady-state repeats must all short-circuit.
    assert 0 < served <= hot_gets
    assert served >= 6  # 3 warm repeat rounds x 2 hot keys at minimum


def test_stale_handler_served_reply_is_counted():
    """Regression (PR 9 satellite): a handler-served reply landing after
    its request was locally resolved must count under the existing
    ``stale_replies`` — not vanish — and still count ``handler_served``."""
    cluster = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", seed=7,
        nic_config=RvmaNicConfig(),
    )
    client = KvClient(RvmaApi(cluster.nodes[1]), ShardMap([0], 1), index=0)
    # req 1 outstanding, req 2 already resolved (e.g. by deadline):
    client._outstanding.add(1)
    flagged = encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, 2, b"late")
    client._feed(flagged)
    assert client._stale.value == 1
    assert client._handler_served.value == 1
    assert 2 not in client._replies  # dropped, but never silently
    # The live twin still lands: outstanding handler-served replies are
    # stripped back to the canonical status before the caller sees them.
    client._feed(encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, 1, b"fresh"))
    reply, _seen = client._replies[1]
    assert (reply.status, reply.payload) == (STATUS_OK, b"fresh")
    assert client._handler_served.value == 2
    assert client._stale.value == 1


def test_bench_active_flash_smoke():
    outcome = run_flash_crowd(n_ops=120)
    assert outcome.invariants_ok is True
    assert outcome.contrast_ok is True
    assert outcome.on.p99_ns < outcome.off.p99_ns
    assert outcome.on.served > 0
    assert outcome.on.handler_served >= outcome.on.served


def test_flash_chaos_flaps_land_during_traffic(monkeypatch):
    # The chaos cell must flap links while the crowd is in flight, not
    # long after it resolved.
    schedules, finished_at = [], []
    plan_schedule, load_run = FlapPlan.schedule, LoadGenerator.run

    def recorded_schedule(plan, cluster):
        schedules.append(plan_schedule(plan, cluster))
        return schedules[-1]

    def timed_run(generator):
        stats = yield from load_run(generator)
        finished_at.append(generator.sim.now)
        return stats

    monkeypatch.setattr(FlapPlan, "schedule", recorded_schedule)
    monkeypatch.setattr(LoadGenerator, "run", timed_run)
    for seed in (1, 2, 3):
        schedules.clear()
        finished_at.clear()
        out = run_flash_chaos(seed=seed)
        assert out.invariants_ok and out.served > 0
        (schedule,), (last_op_ns,) = schedules, finished_at
        assert any(ev.start < last_op_ns for ev in schedule.events), seed
