"""Property tests: active-mailbox handlers vs the host-dispatch oracle.

Three invariants that must hold for *any* drawn workload:

* **scan conformance** — for any request stream and any transport
  chunking of it, every frame is answered exactly once: either served
  by the NIC scanner with bytes identical to the host-dispatch oracle,
  or left intact for the host sweep.  Nothing is double-served, nothing
  vanishes, and the tombstone rewrite never corrupts a neighbour frame;
* **backend invariance** — the client-visible outcome is independent of
  *how* the transport segments the stream.  The rvma / verbs / ucx
  backends differ exactly in their segmentation profiles, so driving
  the scanner with each backend's characteristic chunk sizes must yield
  the same answered-frame multiset (served sets may legally differ —
  straddling frames always fall through to the host);
* **chaos invariance** — a live KV run with handlers armed returns
  byte-identical replies to the active-off host-dispatch run, with or
  without ChaosSchedule link flaps.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core.api import RvmaApi
from repro.experiments.chaos import CHAOS_RELIABILITY
from repro.faults.chaos import ChaosSchedule
from repro.faults.injectors import FaultInjector
from repro.nic.active import ActiveBinding, ActiveRegistry, KvServeHandler
from repro.nic.rvma import RvmaNicConfig
from repro.services import KvClient, KvServer, KvServerConfig, ShardMap
from repro.services.wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    REQ_HEADER_BYTES,
    STATUS_HANDLER_FLAG,
    STATUS_OK,
    RequestDecoder,
    encode_reply,
    encode_request,
    peek_request_header,
)
from repro.sim import spawn

HOT = (b"hot-a", b"hot-b")
KEYS = (*HOT, b"cold-x", b"cold-y")
DEADLINE_NS = 80_000_000.0

# Characteristic stream segmentation per protocol backend: how large a
# contiguous piece of the request stream one completion hands the
# scanner.  This is the *only* thing the backend choice changes about
# the bytes the handler sees.
BACKEND_CHUNK = {"rvma": 4096, "verbs": 1024, "ucx": 256}


# ------------------------------------------------------------------ pure scanner


class _Counter:
    def __init__(self):
        self.value = 0

    def add(self, n=1):
        self.value += n


class _StubBuf:
    def __init__(self, data: bytes):
        self.raw = bytearray(data)
        self.buffer = self

    def read(self, off, n):
        return bytes(self.raw[off : off + n])

    def write(self, off, data):
        self.raw[off : off + len(data)] = data


class _StubNic:
    def __init__(self):
        self.counters = {}
        self.injected = []

    def stat(self, name):
        return self.counters.setdefault(name, _Counter())

    def inject(self, dst, size, header, data=b"", mode=None, after=0.0):
        self.injected.append(bytes(data))


def _scan(chunks, view):
    """Run the NIC scanner over *chunks*; returns (served, survivors)."""
    nic = _StubNic()
    reg = ActiveRegistry(nic)
    binding = ActiveBinding(mailbox=0x9, kv=KvServeHandler(hot_keys=HOT))
    binding.kv_state.view.update(view)
    reg.bindings[0x9] = binding
    swept = []
    for chunk in chunks:
        buf = _StubBuf(chunk)
        reg._scan_and_serve(binding, buf, len(chunk), [], 0.0)
        swept.append(bytes(buf.raw))
    # The host sweep decodes what the scanner left behind (OP_SERVED
    # tombstones skip silently, exactly like KvServer's decoder).
    dec = RequestDecoder()
    survivors = []
    for chunk in swept:
        survivors.extend(dec.feed(chunk))
    return nic.injected, survivors


def _stream_oracle(frames, starts, bounds, view):
    """Host model of the scan in stream order.

    Returns (expected served replies, expected survivor req_ids).  A
    GET serves iff its key is hot, present in the view, has seen no
    earlier write frame, and the frame does not straddle a chunk
    boundary; everything else survives for the host sweep.
    """
    dirty: set[bytes] = set()
    served, survive = [], []
    for f, s in zip(frames, starts):
        op, _t, _c, req_id, klen, _v = peek_request_header(f)
        key = f[REQ_HEADER_BYTES : REQ_HEADER_BYTES + klen]
        whole = not any(s < b < s + len(f) for b in bounds)
        if op == OP_GET and key in HOT and key in view and key not in dirty and whole:
            served.append(encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, req_id, view[key]))
        else:
            survive.append(req_id)
        if op in (OP_PUT, OP_DELETE) and key in HOT:
            dirty.add(key)
    return served, survive


def _split(stream: bytes, cut_points: list[int]) -> list[bytes]:
    cuts = sorted({c % (len(stream) + 1) for c in cut_points} - {0, len(stream)})
    chunks, prev = [], 0
    for c in cuts:
        chunks.append(stream[prev:c])
        prev = c
    chunks.append(stream[prev:])
    return [c for c in chunks if c]


_frame_st = st.tuples(
    st.sampled_from([OP_GET, OP_GET, OP_GET, OP_PUT, OP_DELETE]),  # GET-heavy
    st.sampled_from(KEYS),
    st.binary(min_size=0, max_size=24),
)


@given(
    frames=st.lists(_frame_st, min_size=1, max_size=12),
    cut_points=st.lists(st.integers(min_value=1, max_value=10_000), max_size=6),
    hot_value=st.binary(min_size=1, max_size=32),
)
@settings(max_examples=120, deadline=None)
def test_scan_answers_every_frame_exactly_once(frames, cut_points, hot_value):
    view = {k: hot_value for k in HOT}
    encoded = [
        encode_request(op, 0x0101, i + 1, key, value if op == OP_PUT else b"")
        for i, (op, key, value) in enumerate(frames)
    ]
    stream = b"".join(encoded)
    chunks = _split(stream, cut_points)
    starts, pos = [], 0
    for f in encoded:
        starts.append(pos)
        pos += len(f)
    bounds = set()
    acc = 0
    for c in chunks:
        acc += len(c)
        bounds.add(acc)
    served, survivors = _scan(chunks, view)
    expect_served, expect_survive = _stream_oracle(encoded, starts, bounds, view)
    # Byte-identical serves, in stream order.
    assert served == expect_served
    # Everything else survives for the host, exactly once, in order.
    assert [r.req_id for r in survivors] == expect_survive
    # Nothing lost, nothing duplicated.
    assert len(served) + len(survivors) == len(encoded)


@given(
    frames=st.lists(_frame_st, min_size=1, max_size=10),
    hot_value=st.binary(min_size=1, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_answered_multiset_invariant_across_backends(frames, hot_value):
    """rvma/verbs/ucx segment the same stream differently; the set of
    answered requests (served + survivors) must not depend on it."""
    view = {k: hot_value for k in HOT}
    encoded = [
        encode_request(op, 0x0101, i + 1, key, value if op == OP_PUT else b"")
        for i, (op, key, value) in enumerate(frames)
    ]
    stream = b"".join(encoded)
    served_by, answered_by = {}, {}
    for backend, chunk_size in BACKEND_CHUNK.items():
        chunks = [stream[i : i + chunk_size] for i in range(0, len(stream), chunk_size)]
        served, survivors = _scan(chunks, view)
        # Answered exactly once per frame on every backend.
        assert len(served) + len(survivors) == len(encoded), backend
        served_by[backend] = served
        answered_by[backend] = len(served) + len(survivors)
        # Determinism: the same backend segmentation replays identically.
        served2, survivors2 = _scan(
            [stream[i : i + chunk_size] for i in range(0, len(stream), chunk_size)], view
        )
        assert served2 == served and len(survivors2) == len(survivors)
    # 256 | 1024 | 4096: finer segmentation has strictly more chunk
    # boundaries, so it can only move frames from "served" to "host"
    # (straddlers), never change a reply's bytes — each backend's serve
    # sequence must be a subsequence of the coarser backend's.
    def is_subseq(small, big):
        it = iter(big)
        return all(any(x == y for y in it) for x in small)

    assert is_subseq(served_by["verbs"], served_by["rvma"])
    assert is_subseq(served_by["ucx"], served_by["verbs"])


# ------------------------------------------------------------------ live KV


def _live_run(active: bool, seed: int, script, drop_prob: float):
    """One live client/server run; returns (replies, store, served)."""
    cluster = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
        seed=seed, nic_config=RvmaNicConfig(reliability=CHAOS_RELIABILITY),
    )
    if drop_prob > 0.0:
        ChaosSchedule.generate(
            cluster, horizon_ns=200_000.0, n_events=2, max_window_ns=20_000.0,
            drop_prob=drop_prob, kinds=("link_flap",),
        ).apply(FaultInjector(cluster))
    shard_map = ShardMap([0], shards_per_node=2)
    cfg = KvServerConfig(hot_keys=HOT if active else ())
    server = KvServer(cluster.nodes[0], shard_map, config=cfg).start()
    client = KvClient(RvmaApi(cluster.nodes[1]), shard_map, index=0)
    out = {}

    def driver():
        yield from client.open()
        replies = []
        for kind, key_i, fill in script:
            key = KEYS[key_i % len(KEYS)]
            if kind == "put":
                status = yield from client.put(key, bytes([fill]) * (1 + fill % 20))
                replies.append((kind, status, b""))
            elif kind == "delete":
                status = yield from client.delete(key)
                replies.append((kind, status, b""))
            else:
                status, value = yield from client.get(key)
                replies.append((kind, status, value))
        out["replies"] = replies
        server.stop()

    proc = spawn(cluster.sim, driver(), "driver")
    cluster.sim.run(until=DEADLINE_NS)
    assert proc.finished, "driver stalled"
    served = cluster.nodes[0].nic.stat("nic.rvma.active.served").value
    store = {k: dict(v) for k, v in server.stores.items()}
    return out["replies"], store, served


@given(
    seed=st.integers(min_value=1, max_value=10_000),
    script=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "get", "delete"]),
            st.integers(min_value=0, max_value=len(KEYS) - 1),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=4, max_size=12,
    ),
    drop_prob=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=8, deadline=None)
def test_handler_serves_identically_under_chaos(seed, script, drop_prob):
    """active == host-dispatch oracle, replies and final stores
    byte-for-byte, chaos or not."""
    on = _live_run(True, seed, script, drop_prob)
    off = _live_run(False, seed, script, drop_prob)
    assert on[0] == off[0], "active vs host-dispatch replies diverged"
    assert on[1] == off[1], "active vs host-dispatch stores diverged"
    assert off[2] == 0  # the oracle run never fires a handler
