"""Property tests: the KV service under fault schedules.

Two invariants that must hold for *any* drawn workload and flap
schedule:

* **per-key linearizability** — each key has a single writer (keys are
  partitioned per client), so a GET must return exactly the latest
  acknowledged PUT (or NOT_FOUND after a DELETE), chaos or not;
* **stream integrity** — the server-observed byte stream of a
  receiver-managed request stream is exactly the concatenation of the
  client's writes, even when link flaps force ARQ retransmission (the
  transport's duplicate suppression is what keeps replayed puts from
  double-landing).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import RvmaApi, StreamClient, StreamServer
from repro.experiments.chaos import CHAOS_RELIABILITY
from repro.faults.chaos import ChaosSchedule
from repro.faults.injectors import FaultInjector
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.services import KvClient, KvServer, ShardMap
from repro.services.wire import STATUS_NOT_FOUND, STATUS_OK
from repro.sim import spawn

DEADLINE_NS = 80_000_000.0


def _chaos_cluster(n_nodes: int, seed: int, drop_prob: float):
    cluster = Cluster.build(
        n_nodes=n_nodes, topology="star", nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    schedule = ChaosSchedule.generate(
        cluster, horizon_ns=300_000.0, n_events=2, max_window_ns=30_000.0,
        drop_prob=drop_prob, kinds=("link_flap",),
    )
    schedule.apply(FaultInjector(cluster))
    return cluster


@given(
    seed=st.integers(min_value=1, max_value=10_000),
    schedules=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(min_value=0, max_value=3),   # key index
                st.integers(min_value=0, max_value=255), # value fill
            ),
            min_size=3, max_size=10,
        ),
        min_size=1, max_size=2,  # clients
    ),
    drop_prob=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=12, deadline=None)
def test_kv_gets_are_linearizable_per_key(seed, schedules, drop_prob):
    """GET returns the latest acked PUT for its key, under link flaps."""
    n_clients = len(schedules)
    cluster = _chaos_cluster(1 + n_clients, seed, drop_prob)
    shard_map = ShardMap([0], shards_per_node=2)
    server = KvServer(cluster.nodes[0], shard_map).start()
    failures: list[str] = []

    def client_proc(rank: int, schedule):
        client = KvClient(RvmaApi(cluster.nodes[1 + rank]), shard_map, index=rank)
        yield from client.open()
        model: dict[bytes, bytes] = {}
        for step, (kind, key_i, fill) in enumerate(schedule):
            # Keys partitioned per client: rank owns its own namespace,
            # so the local model is the exact linearization.
            key = b"c%d-k%d" % (rank, key_i)
            if kind == "put":
                value = bytes([fill]) * (1 + fill % 24)
                status = yield from client.put(key, value)
                if status != STATUS_OK:
                    failures.append(f"rank{rank} step{step}: put -> {status}")
                else:
                    model[key] = value
            elif kind == "delete":
                status = yield from client.delete(key)
                want = STATUS_OK if key in model else STATUS_NOT_FOUND
                if status != want:
                    failures.append(f"rank{rank} step{step}: delete -> {status} want {want}")
                model.pop(key, None)
            else:
                status, value = yield from client.get(key)
                if key in model:
                    if (status, value) != (STATUS_OK, model[key]):
                        failures.append(
                            f"rank{rank} step{step}: get {key!r} -> "
                            f"({status}, {value!r}) want {model[key]!r}"
                        )
                elif status != STATUS_NOT_FOUND:
                    failures.append(f"rank{rank} step{step}: ghost get -> {status}")

    procs = [
        spawn(cluster.sim, client_proc(rank, schedule), f"kv-client-{rank}")
        for rank, schedule in enumerate(schedules)
    ]

    def stopper():
        yield from _await_all(procs)
        server.stop()

    def _await_all(ps):
        from repro.sim.process import AllOf

        yield AllOf([p.done_future for p in ps])

    stop = spawn(cluster.sim, stopper(), "stopper")
    cluster.sim.run(until=DEADLINE_NS)
    assert all(p.finished for p in procs + [stop]), "workload stalled under chaos"
    assert not failures, failures
    counters = MetricsRegistry.collect(cluster).counters
    assert counters["transport.tx"] > 0
    assert counters.get("transport.gave_up", 0) == 0
    assert counters.get("nic.rvma.puts_lost", 0) == 0


@given(
    seed=st.integers(min_value=1, max_value=10_000),
    chunk_size=st.integers(min_value=16, max_value=64),
    n_chunks=st.integers(min_value=2, max_value=6),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=6),
    drop_prob=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=12, deadline=None)
def test_request_stream_integrity_under_flaps(seed, chunk_size, n_chunks, cuts, drop_prob):
    """Server-observed stream bytes == concatenation of client writes,
    with ARQ retransmission (and its duplicate suppression) in the path."""
    total = chunk_size * n_chunks
    stream = bytes((i * 193 + seed) % 256 for i in range(total))
    points = sorted({c % (total + 1) for c in cuts} | {0, total})
    pieces = [stream[a:b] for a, b in zip(points, points[1:]) if b > a]

    cluster = _chaos_cluster(2, seed, drop_prob)
    server = StreamServer(RvmaApi(cluster.nodes[0]), 0x5EED, chunk_size, n_chunks + 2)
    client = StreamClient(RvmaApi(cluster.nodes[1]), 0, 0x5EED)
    received: list[bytes] = []

    def server_proc():
        yield from server.open()
        for _ in range(n_chunks):
            chunk = yield from server.recv()
            received.append(chunk)

    def client_proc():
        yield 2000.0
        for piece in pieces:
            op = yield from client.send(piece)
            yield op.local_done

    sp = spawn(cluster.sim, server_proc(), "srv")
    cp = spawn(cluster.sim, client_proc(), "cli")
    cluster.sim.run(until=DEADLINE_NS)
    assert sp.finished and cp.finished, "stream stalled under chaos"
    assert b"".join(received) == stream
    assert all(len(c) == chunk_size for c in received)
    counters = MetricsRegistry.collect(cluster).counters
    assert counters["transport.tx"] > 0
    assert counters.get("transport.gave_up", 0) == 0
