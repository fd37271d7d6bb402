"""A sharded key-value service layered on RVMA primitives.

The keyspace is hashed (``core.addressing.stable_hash64``) onto shards;
each shard is one receiver-managed request mailbox on a server node
(paper §IV-B streams), so *many initiators hammer few targets
continuously* — the regime RVMA's receiver-side buffer management is
built for.  Clients append whole request frames to the shard stream
with plain ``RVMA_Put``; servers sweep their shards, decode, execute,
and put *batched* reply frames back to per-client completion mailboxes
(STEERED, one epoch per put, like any other RVMA response channel).

Backpressure is not implemented here because it already exists: when a
shard's bucket runs dry the NIC NACKs ``NO_BUFFER`` and — with the
reliability transport enabled — the sender's transport holds the flow
against ``flow_room`` until the server re-posts chunks.  Run the
cluster with ``RvmaNicConfig(reliability=...)`` to get that hold path
(and ordered whole-message dispatch into the managed stream).

Client ids are self-describing: ``client_id = (node_id << 8) | index``,
so a server can route the reply without any membership registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..core.addressing import stable_hash64
from ..core.api import RvmaApi
from ..core.receiver_managed import StreamClient, StreamServer
from ..core.status import RvmaStatus
from ..network.routing import RoutingMode
from ..nic.active import KvServeHandler
from ..nic.lut import BufferMode, EpochType
from ..sim.process import spawn
from .qos import AdmissionController, ClientRobustnessConfig, DeficitRoundRobin, QosConfig
from .wire import (
    DEFAULT_TENANT,
    OP_DELETE,
    OP_GET,
    OP_NAMES,
    OP_PUT,
    OP_SCAN,
    REQ_HEADER_BYTES,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOAD,
    KvReply,
    KvRequest,
    ReplyDecoder,
    RequestDecoder,
    decode_scan_payload,
    encode_request,
    encode_scan_payload,
    status_is_handler_served,
    strip_handler_flag,
)

#: Mailbox bases: shard request streams and per-client reply mailboxes
#: live in disjoint slices of the 48-bit (PID-local) mailbox space.
REQUEST_MAILBOX_BASE = 0x5E4B_0000
REPLY_MAILBOX_BASE = 0x5EC7_0000

#: ``service.kv.request_latency_ns`` binning: 500 ns resolution out to
#: 400 µs; heavier tails land in the overflow bucket (percentile() then
#: reports the upper edge).
LATENCY_HI_NS = 400_000.0
LATENCY_NBINS = 800

#: QoS sweeps: the DRR quantum in request-frame bytes per ring visit
#: (× tenant weight), and the admitted request bytes one sweep executes;
#: backlog beyond it waits for the next sweep in DRR order.
DRR_QUANTUM_BYTES = 2048
SWEEP_BUDGET_BYTES = 8192
#: Max items returned per SCAN.
SCAN_LIMIT = 64


def client_id_of(node_id: int, index: int) -> int:
    """Self-describing client id (reply-routable without a registry)."""
    if not 0 <= index < 256:
        raise ValueError("client index must fit in 8 bits")
    return (node_id << 8) | index


def node_of_client(client_id: int) -> int:
    return client_id >> 8


class ShardMap:
    """Hash → shard → (server node, request mailbox) placement.

    Shards round-robin across the server nodes so consecutive shard ids
    spread load; the mapping is pure arithmetic, identical on every
    node, and needs no coordination — exactly the property mailbox
    indirection buys over address-based RDMA placement.
    """

    def __init__(self, server_nodes: list[int], shards_per_node: int = 1) -> None:
        if not server_nodes:
            raise ValueError("shard map requires at least one server node")
        if shards_per_node < 1:
            raise ValueError("shards_per_node must be >= 1")
        self.server_nodes = list(server_nodes)
        self.shards_per_node = shards_per_node
        self.n_shards = len(server_nodes) * shards_per_node

    def shard_of(self, key: bytes) -> int:
        return stable_hash64(key) % self.n_shards

    def node_of(self, shard: int) -> int:
        return self.server_nodes[shard % len(self.server_nodes)]

    def mailbox_of(self, shard: int) -> int:
        return REQUEST_MAILBOX_BASE + shard

    def locate(self, key: bytes) -> tuple[int, int, int]:
        """(shard, server node, request mailbox) for *key*."""
        shard = self.shard_of(key)
        return shard, self.node_of(shard), self.mailbox_of(shard)

    def shards_on(self, node_id: int) -> list[int]:
        return [s for s in range(self.n_shards) if self.node_of(s) == node_id]


@dataclass
class KvServerConfig:
    """Server-side stream and sweep tuning."""

    #: Managed-stream chunk size per shard (== epoch byte threshold).
    chunk_bytes: int = 4096
    #: Chunks armed per shard bucket (receiver-side credit).
    n_chunks: int = 4
    #: Sweep interval when a shard is idle (partial chunks are flushed
    #: via ``RVMA_Win_inc_epoch`` so small requests never stall).
    poll_interval_ns: float = 2000.0
    #: Modeled host CPU cost per executed request (+ per payload byte).
    #: Zero (the default) keeps execution instantaneous — the historical
    #: behaviour every event-identical test relies on; QoS cells set it
    #: so the service has a finite capacity worth isolating.
    service_ns_per_request: float = 0.0
    service_ns_per_byte: float = 0.0
    #: Opt-in active mailboxes (repro.nic.active): keys listed here get
    #: a NIC-side GET short-circuit — the completion unit serves them
    #: from a server-synced read-only view, and the host sweep never
    #: dispatches the served frames.  Empty (the default) leaves every
    #: event exactly as before.
    hot_keys: tuple = ()


class KvServer:
    """One node's shard servers: stream sweeps, stores, batched replies.

    Pass a :class:`~repro.services.qos.QosConfig` (plus the cluster's
    :class:`~repro.services.tenancy.TenantDirectory`) to arm multi-
    tenant QoS: the sweep loop then admits each decoded request through
    the tenant's token bucket (refusals reply ``RC_OVERLOAD``
    immediately) and drains the admitted backlog in deficit-round-robin
    order instead of FIFO.  Without a QoS config the sweep is the
    original FIFO drain, event-for-event.
    """

    def __init__(
        self,
        node,
        shard_map: ShardMap,
        config: Optional[KvServerConfig] = None,
        qos: Optional[QosConfig] = None,
        tenants=None,
    ) -> None:
        self.node = node
        self.api = RvmaApi(node)
        self.map = shard_map
        self.config = config or KvServerConfig()
        self.qos = qos
        self.tenants = tenants
        if qos is not None and tenants is None:
            raise ValueError("QoS needs the TenantDirectory that defines tenant policy")
        self.admission = (
            AdmissionController(node.sim, tenants, qos) if qos is not None else None
        )
        self.shards = shard_map.shards_on(node.node_id)
        #: shard → hot keys served by that shard's active mailbox handler.
        cfg_hot = tuple(self.config.hot_keys)
        self._hot: dict[int, tuple[bytes, ...]] = {
            s: tuple(k for k in cfg_hot if shard_map.shard_of(k) == s)
            for s in self.shards
        }
        #: shard → key/value store (plain dict; durability is out of scope).
        self.stores: dict[int, dict[bytes, bytes]] = {s: {} for s in self.shards}
        self.streams: dict[int, StreamServer] = {}
        self.schedulers: dict[int, DeficitRoundRobin] = {}
        self._stopped = False
        self._procs: list = []
        stats = node.sim.stats
        self._requests = stats.counter("service.kv.requests")
        self._replies = stats.counter("service.kv.replies")
        self._not_found = stats.counter("service.kv.not_found")
        self._bytes_in = stats.counter("service.kv.bytes_in")
        self._bytes_out = stats.counter("service.kv.bytes_out")
        self._flushes = stats.counter("service.kv.flushes")
        self._reply_batch = stats.summary("service.kv.reply_batch")
        self._queue_depth = stats.summary("service.kv.shard_queue_depth")

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> "KvServer":
        """Spawn one sweep process per local shard."""
        for shard in self.shards:
            self._procs.append(
                spawn(self.node.sim, self._shard_loop(shard), name=f"kv-shard{shard}")
            )
        return self

    def stop(self) -> None:
        """Stop sweeping at the next idle wakeup (processes drain out)."""
        self._stopped = True

    # ------------------------------------------------------------------ sweeping

    def _stream_backlog(self, stream: StreamServer) -> int:
        """Bytes sitting in the shard's *active* (unretired) chunk.

        A host-side peek at the NIC's threshold counter — the same word
        ``RVMA_Win_get_epoch`` reads — used to decide whether an early
        flush would surface anything.
        """
        entry = self.api.nic.lut.entries.get(stream.win.virtual_addr)
        if entry is None or entry.active is None:
            return 0
        return int(entry.active.counter)

    def _shard_loop(self, shard: int) -> Generator:
        cfg = self.config
        stream = StreamServer(self.api, self.map.mailbox_of(shard), cfg.chunk_bytes, cfg.n_chunks)
        self.streams[shard] = stream
        yield from stream.open()
        decoder = RequestDecoder()
        store = self.stores[shard]
        hot = self._hot.get(shard)
        if hot:
            # Arm the NIC-side GET short-circuit, then seed its view
            # with whatever the store already holds for the hot keys.
            handler = KvServeHandler(hot_keys=hot, reply_mailbox_base=REPLY_MAILBOX_BASE)
            yield from self.api.attach_handler(stream.win, handler)
            for key in hot:
                value = store.get(key)
                if value is not None:
                    yield from self.api.kv_sync(stream.win, key, value=value)
        if self.qos is None:
            yield from self._fifo_loop(shard, stream, decoder, store)
        else:
            yield from self._qos_loop(shard, stream, decoder, store)
        yield from stream.close()

    def _fifo_loop(self, shard: int, stream: StreamServer, decoder: RequestDecoder, store: dict) -> Generator:
        cfg = self.config
        while not self._stopped:
            if stream.poll_ready():
                data = yield from stream.recv()
            elif self._stream_backlog(stream) > 0:
                # Small requests must not wait for a full chunk: hand the
                # partial buffer to software now (paper's inc_epoch).
                status = yield from stream.flush()
                if status is not RvmaStatus.SUCCESS:
                    yield cfg.poll_interval_ns
                    continue
                self._flushes.add()
                data = yield from stream.recv()
            else:
                yield cfg.poll_interval_ns
                continue
            if not data:
                continue
            self._bytes_in.add(len(data))
            requests = decoder.feed(data)
            self._queue_depth.add(len(requests))
            if not requests:
                continue
            yield from self._execute_batch(shard, store, requests)

    def _qos_loop(self, shard: int, stream: StreamServer, decoder: RequestDecoder, store: dict) -> Generator:
        """Weighted-fair sweep: admit → per-tenant DRR queues → drain.

        Work-conserving: the loop only sleeps when the stream is idle
        *and* the scheduler is empty.  A sweep drains at most
        ``SWEEP_BUDGET_BYTES`` of admitted requests, so one
        tenant's burst cannot execute ahead of everyone for long —
        whatever remains waits its DRR turn next sweep.
        """
        cfg = self.config
        adm = self.admission
        sched = self.schedulers[shard] = DeficitRoundRobin(DRR_QUANTUM_BYTES)
        spans = self.node.sim.spans
        while not self._stopped:
            data = b""
            if stream.poll_ready():
                data = yield from stream.recv()
            elif sched.pending_items == 0 and self._stream_backlog(stream) > 0:
                status = yield from stream.flush()
                if status is RvmaStatus.SUCCESS:
                    self._flushes.add()
                    data = yield from stream.recv()
            if data:
                self._bytes_in.add(len(data))
                now = self.node.sim.now
                shed: dict[int, list[bytes]] = {}
                for req in decoder.feed(data):
                    cost = REQ_HEADER_BYTES + len(req.key) + len(req.value)
                    if adm.admit(req.tenant, cost):
                        sched.push(
                            req.tenant, (req, cost, now), cost,
                            weight=self.tenants.spec(req.tenant).weight,
                        )
                    else:
                        # Refused at admission: a cheap RC_OVERLOAD reply
                        # now beats a client timeout later.
                        reply = KvReply(STATUS_OVERLOAD, req.req_id)
                        shed.setdefault(req.client_id, []).append(reply.encode())
                        if req.op in (OP_PUT, OP_DELETE) and req.key in self._hot.get(shard, ()):
                            # The NIC scanner pending-counted this write;
                            # it will never execute, so release the count
                            # (executed=False) or the key wedges dirty.
                            yield from self.api.kv_sync(
                                self.streams[shard].win, req.key, executed=False
                            )
                if shed:
                    yield from self._put_replies(shed)
            if sched.pending_items:
                self._queue_depth.add(sched.pending_items)
                sp = None
                if spans.active and spans.wants("qos"):
                    sp = spans.begin("qos", "drr_drain", shard=shard)
                batch = sched.take(SWEEP_BUDGET_BYTES)
                now = self.node.sim.now
                requests = []
                for req, cost, enq_at in batch:
                    adm.note_sojourn(now - enq_at)
                    adm.note_served(req.tenant, cost)
                    requests.append(req)
                yield from self._execute_batch(shard, store, requests)
                if sp is not None:
                    spans.end(sp, served=len(batch), pending=sched.pending_items)
            elif not data:
                yield cfg.poll_interval_ns

    def _execute_batch(self, shard: int, store: dict, requests: list[KvRequest]) -> Generator:
        spans = self.node.sim.spans
        cfg = self.config
        by_client: dict[int, list[bytes]] = {}
        for req in requests:
            cost = cfg.service_ns_per_request + cfg.service_ns_per_byte * (
                len(req.key) + len(req.value)
            )
            if cost > 0:
                yield cost
            sp = None
            if spans.active and spans.wants("service"):
                sp = spans.begin(
                    "service", f"kv_{OP_NAMES[req.op]}", shard=shard, client=req.client_id
                )
            reply = self._execute(store, req)
            if sp is not None:
                spans.end(sp, status=reply.status)
            self._requests.add()
            if req.op in (OP_PUT, OP_DELETE) and req.key in self._hot.get(shard, ()):
                # Executed a write on a hot key: fold it into the NIC's
                # read-only view and release one pending-write count, so
                # the handler may serve GETs behind it again.
                yield from self.api.kv_sync(
                    self.streams[shard].win,
                    req.key,
                    value=req.value if req.op == OP_PUT else None,
                    delete=req.op == OP_DELETE,
                )
            by_client.setdefault(req.client_id, []).append(reply.encode())
        yield from self._put_replies(by_client)

    def _put_replies(self, by_client: dict[int, list[bytes]]) -> Generator:
        # Batched replies: one put per client per sweep, however many of
        # its requests this sweep decoded.
        for client_id, frames in sorted(by_client.items()):
            batch = b"".join(frames)
            self._reply_batch.add(len(frames))
            self._replies.add(len(frames))
            self._bytes_out.add(len(batch))
            op = yield from self.api.put(
                node_of_client(client_id),
                REPLY_MAILBOX_BASE + client_id,
                data=batch,
                mode=RoutingMode.STATIC,
            )
            yield op.local_done

    def _execute(self, store: dict, req: KvRequest) -> KvReply:
        if req.op == OP_PUT:
            store[req.key] = req.value
            return KvReply(STATUS_OK, req.req_id)
        if req.op == OP_GET:
            value = store.get(req.key)
            if value is None:
                self._not_found.add()
                return KvReply(STATUS_NOT_FOUND, req.req_id)
            return KvReply(STATUS_OK, req.req_id, value)
        if req.op == OP_DELETE:
            if store.pop(req.key, None) is None:
                self._not_found.add()
                return KvReply(STATUS_NOT_FOUND, req.req_id)
            return KvReply(STATUS_OK, req.req_id)
        # OP_SCAN: key is the prefix; bounded, sorted listing.
        items = [
            (k, v)
            for k, v in sorted(store.items())
            if k.startswith(req.key)
        ][:SCAN_LIMIT]
        return KvReply(STATUS_OK, req.req_id, encode_scan_payload(items))


#: Reply buffers each client keeps armed on its completion mailbox, and
#: the size of each.
REPLY_SLOTS = 8
MAX_REPLY_BYTES = 8192
#: A robust client's timeout multiplier per retry and its ceiling, the
#: uniform jitter fraction on each attempt's timeout, and the reply
#: mailbox poll interval while it waits under a timeout.
CLIENT_BACKOFF_FACTOR = 2.0
CLIENT_MAX_BACKOFF_NS = 1_000_000.0
CLIENT_JITTER_FRAC = 0.1
CLIENT_POLL_NS = 1_000.0


class KvClient:
    """Blocking client endpoint: request streams out, replies in.

    One client = one completion mailbox (STEERED, epoch per put) plus a
    cached :class:`StreamClient` per shard it has touched.  ``get`` /
    ``put`` / ``delete`` / ``scan`` block for their reply;
    :meth:`execute_batch` pipelines several frames in one stream put and
    collects the (server-batched) replies, which is what the load
    generator uses to drive reply batching.
    """

    def __init__(
        self,
        api: RvmaApi,
        shard_map: ShardMap,
        index: int = 0,
        max_put_bytes: int = 4096,
        tenant_id: int = DEFAULT_TENANT,
        robustness: Optional[ClientRobustnessConfig] = None,
    ) -> None:
        self.api = api
        self.map = shard_map
        #: Largest request put (liveness bound): a put bigger than the
        #: shard's bucket can never acquire ``flow_room`` and the
        #: transport would hold it forever, so batches are split to stay
        #: within one server chunk (keep this <= KvServerConfig.chunk_bytes).
        self.max_put_bytes = max_put_bytes
        self.client_id = client_id_of(api.node.node_id, index)
        self.reply_mailbox = REPLY_MAILBOX_BASE + self.client_id
        #: Tenant stamped into every request frame this client issues.
        self.tenant_id = tenant_id
        #: When set, requests carry deadlines and time out → retry with
        #: exponential backoff + jitter instead of blocking forever.
        self.robustness = robustness
        self.reply_win = None
        self._streams: dict[int, StreamClient] = {}
        self._decoder = ReplyDecoder()
        self._replies: dict[int, tuple[KvReply, float]] = {}
        #: req_ids awaiting a reply; frames for requests no longer here
        #: (a retry's original arriving late) are dropped as stale.
        self._outstanding: set[int] = set()
        #: req_id → (shard, frame) kept while robust requests are in
        #: flight, so a timeout can retransmit the identical frame.
        self._frames: dict[int, tuple[int, bytes]] = {}
        self._next_req = 0
        #: Optional TraceRecorder (repro.workloads): when set, every op
        #: this client offers is noted at its batch anchor time.
        self.recorder = None
        stats = api.sim.stats
        self._latency = stats.histogram(
            "service.kv.request_latency_ns", lo=0.0, hi=LATENCY_HI_NS, nbins=LATENCY_NBINS
        )
        self._tenant_latency = (
            stats.histogram(
                f"service.kv.tenant.request_latency_ns.t{tenant_id}",
                lo=0.0, hi=LATENCY_HI_NS, nbins=LATENCY_NBINS,
            )
            if tenant_id != DEFAULT_TENANT
            else None
        )
        self._timeouts = stats.counter("service.kv.client.timeouts")
        self._retries = stats.counter("service.kv.client.retries")
        self._stale = stats.counter("service.kv.client.stale_replies")
        self._handler_served = stats.counter("service.kv.client.handler_served")
        self._tenant_retries = stats.counter(f"service.kv.tenant.retries.t{tenant_id}")
        self._deadline_misses = stats.counter(
            f"service.kv.tenant.deadline_misses.t{tenant_id}"
        )

    def open(self) -> Generator:
        """Create the completion mailbox and arm its reply buffers."""
        self.reply_win = yield from self.api.init_window(
            self.reply_mailbox,
            epoch_threshold=1,
            epoch_type=EpochType.EPOCH_OPS,
            mode=BufferMode.STEERED,
        )
        for _ in range(REPLY_SLOTS):
            yield from self.api.post_buffer(self.reply_win, size=MAX_REPLY_BYTES)
        return self

    def _stream_to(self, shard: int) -> StreamClient:
        stream = self._streams.get(shard)
        if stream is None:
            stream = self._streams[shard] = StreamClient(
                self.api, self.map.node_of(shard), self.map.mailbox_of(shard)
            )
        return stream

    # ------------------------------------------------------------------ requests

    def execute_batch(
        self,
        ops: list[tuple[int, bytes, bytes]],
        t0: Optional[float] = None,
        deadline_ns: Optional[float] = None,
    ) -> Generator:
        """Issue *ops* (``(op, key, value)`` tuples) as pipelined frames.

        Frames for the same shard travel in one stream put.  Returns the
        replies in issue order.  *t0* overrides the latency-measurement
        start (open-loop generators pass the intended arrival time so
        queueing delay counts).

        With :attr:`robustness` armed, every op also carries a deadline
        of ``t0 + deadline_ns`` (default budget from the config): lost
        or unanswered requests retransmit with exponential backoff +
        jitter, and at the deadline resolve locally as
        ``STATUS_DEADLINE_EXCEEDED`` — no op can stall forever.  The
        deadline anchors at *t0*, so time an op spent queued before
        issue (open-loop backlog) consumes its budget: deadline
        propagation, not per-attempt reset.
        """
        start = self.api.sim.now if t0 is None else t0
        if self.recorder is not None:
            # Record the offered op stream before any outcome is known —
            # deadline-burned backlog ops were still offered load.
            for op, key, value in ops:
                self.recorder.note(
                    start, self.tenant_id, self.client_id, op, key, len(value)
                )
        robust = self.robustness
        deadline = None
        if robust is not None:
            deadline = start + (
                deadline_ns if deadline_ns is not None else robust.default_deadline_ns
            )
            if self.api.sim.now >= deadline:
                # Budget burned before issue (sat too long in a backlog):
                # resolve without wasting wire on frames nobody can wait for.
                out = []
                for op, _key, _value in ops:
                    self._next_req += 1
                    self._deadline_misses.add()
                    out.append(KvReply(STATUS_DEADLINE_EXCEEDED, self._next_req))
                return out
        by_shard: dict[int, list[bytes]] = {}
        req_ids: list[int] = []
        for op, key, value in ops:
            self._next_req += 1
            req_id = self._next_req
            req_ids.append(req_id)
            frame = encode_request(
                op, self.client_id, req_id, key, value, tenant=self.tenant_id
            )
            if len(frame) > self.max_put_bytes:
                raise ValueError(
                    f"request frame of {len(frame)}B exceeds max_put_bytes="
                    f"{self.max_put_bytes} (would hold forever against flow_room)"
                )
            shard = self.map.shard_of(key)
            by_shard.setdefault(shard, []).append(frame)
            self._outstanding.add(req_id)
            if robust is not None:
                self._frames[req_id] = (shard, frame)
        for shard in sorted(by_shard):
            for chunk in self._pack(by_shard[shard]):
                put_op = yield from self._stream_to(shard).send(chunk)
                yield put_op.local_done
        replies = []
        for req_id in req_ids:
            if robust is None:
                reply, seen_at = yield from self._await_reply(req_id)
            else:
                reply, seen_at = yield from self._await_reply_robust(req_id, deadline)
            if reply.status != STATUS_DEADLINE_EXCEEDED:
                self._latency.add(seen_at - start)
                if self._tenant_latency is not None:
                    self._tenant_latency.add(seen_at - start)
            replies.append(reply)
        return replies

    def _pack(self, frames: list[bytes]) -> list[bytes]:
        """Greedily coalesce whole frames into puts of <= max_put_bytes."""
        puts: list[bytes] = []
        cur: list[bytes] = []
        size = 0
        for frame in frames:
            if cur and size + len(frame) > self.max_put_bytes:
                puts.append(b"".join(cur))
                cur, size = [], 0
            cur.append(frame)
            size += len(frame)
        if cur:
            puts.append(b"".join(cur))
        return puts

    def _feed(self, data: bytes) -> None:
        now = self.api.sim.now
        for reply in self._decoder.feed(data):
            if status_is_handler_served(reply.status):
                # Served by a NIC-side active handler: strip the marker
                # so callers see the canonical (host-identical) reply,
                # but count it — QoS/DRR accounting needs to know this
                # request never consumed host sweep budget.
                self._handler_served.add()
                reply = KvReply(strip_handler_flag(reply.status), reply.req_id, reply.payload)
            if reply.req_id in self._outstanding:
                self._replies[reply.req_id] = (reply, now)
            else:
                # A retry already won (or the deadline resolved this op):
                # the late duplicate — handler-served or host-dispatched
                # alike — is counted and dropped, never silently lost.
                self._stale.add()

    def _take_reply(self, req_id: int) -> tuple[KvReply, float]:
        self._outstanding.discard(req_id)
        self._frames.pop(req_id, None)
        return self._replies.pop(req_id)

    def _await_reply(self, req_id: int) -> Generator:
        while req_id not in self._replies:
            info = yield from self.api.wait_completion(self.reply_win)
            data = info.read_data()
            yield from self.api.post_buffer(self.reply_win, buffer=info.record.buffer)
            self._feed(data)
        return self._take_reply(req_id)

    # ------------------------------------------------------------------ robustness

    def _reply_ready(self) -> bool:
        """Non-blocking completion check (StreamServer.poll_ready idiom)."""
        try:
            record = self.reply_win.next_unconsumed()
        except IndexError:
            return False
        return self.api.node.memory.read_u64(record.notification_addr) != 0

    def _drain_ready(self) -> Generator:
        """Consume every visibly completed reply buffer; True if any."""
        progressed = False
        while self._reply_ready():
            info = yield from self.api.wait_completion(self.reply_win)
            data = info.read_data()
            yield from self.api.post_buffer(self.reply_win, buffer=info.record.buffer)
            self._feed(data)
            progressed = True
        return progressed

    def _poll_until(self, req_id: int, until: float) -> Generator:
        """Poll for *req_id*'s reply until sim-time *until*; True if seen."""
        while True:
            if req_id in self._replies:
                return True
            yield from self._drain_ready()
            if req_id in self._replies:
                return True
            now = self.api.sim.now
            if now >= until:
                return False
            yield min(CLIENT_POLL_NS, until - now)

    def _await_reply_robust(self, req_id: int, deadline: float) -> Generator:
        """Wait with timeout → retransmit → backoff, bounded by *deadline*.

        Timeouts double per retry up to the cap with deterministic
        jitter (named ``kv.client.jitter`` stream — the reliability
        layer's backoff idiom); every wait clamps to the deadline, and
        reaching it resolves the op as ``STATUS_DEADLINE_EXCEEDED``.
        """
        cfg = self.robustness
        rng = self.api.sim.rng
        timeout = cfg.request_timeout_ns
        attempt = 0
        while True:
            now = self.api.sim.now
            if req_id in self._replies:
                return self._take_reply(req_id)
            if now >= deadline:
                self._outstanding.discard(req_id)
                self._frames.pop(req_id, None)
                self._replies.pop(req_id, None)
                self._deadline_misses.add()
                return KvReply(STATUS_DEADLINE_EXCEEDED, req_id), now
            jitter = 1.0 + CLIENT_JITTER_FRAC * rng.random("kv.client.jitter")
            got = yield from self._poll_until(req_id, min(now + timeout * jitter, deadline))
            if got or self.api.sim.now >= deadline:
                continue
            self._timeouts.add()
            if attempt < cfg.max_retries:
                attempt += 1
                self._retries.add()
                self._tenant_retries.add()
                shard, frame = self._frames[req_id]
                put_op = yield from self._stream_to(shard).send(frame)
                yield put_op.local_done
                timeout = min(timeout * CLIENT_BACKOFF_FACTOR, CLIENT_MAX_BACKOFF_NS)
            # Retry budget spent: keep polling out the remaining deadline.

    def _one(self, op: int, key: bytes, value: bytes = b"") -> Generator:
        replies = yield from self.execute_batch([(op, key, value)])
        return replies[0]

    def put(self, key: bytes, value: bytes) -> Generator:
        """Store *value* under *key*; returns the reply status."""
        reply = yield from self._one(OP_PUT, key, value)
        return reply.status

    def get(self, key: bytes) -> Generator:
        """Fetch *key*; returns ``(status, value)``."""
        reply = yield from self._one(OP_GET, key)
        return reply.status, reply.payload

    def delete(self, key: bytes) -> Generator:
        """Remove *key*; returns the reply status."""
        reply = yield from self._one(OP_DELETE, key)
        return reply.status

    def scan(self, prefix: bytes) -> Generator:
        """List stored ``(key, value)`` pairs under *prefix*.

        Keys hash across shards, so a prefix scan is scatter-gather: one
        SCAN frame to every shard, merged sorted on the client.  Each
        shard's contribution is bounded by the server's ``scan_limit``.
        """
        start = self.api.sim.now
        if self.recorder is not None:
            self.recorder.note(
                start, self.tenant_id, self.client_id, OP_SCAN, prefix, 0
            )
        req_ids: list[int] = []
        for shard in range(self.map.n_shards):
            self._next_req += 1
            req_ids.append(self._next_req)
            self._outstanding.add(self._next_req)
            frame = encode_request(
                OP_SCAN, self.client_id, self._next_req, prefix, tenant=self.tenant_id
            )
            put_op = yield from self._stream_to(shard).send(frame)
            yield put_op.local_done
        items: list[tuple[bytes, bytes]] = []
        last_seen = start
        for req_id in req_ids:
            reply, seen_at = yield from self._await_reply(req_id)
            last_seen = max(last_seen, seen_at)
            items.extend(decode_scan_payload(reply.payload))
        self._latency.add(last_seen - start)
        return sorted(items)
