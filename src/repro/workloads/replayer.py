"""Drive a KV client pool open-loop from a recorded trace.

The replayer is the other half of the record/replay contract: given the
same trace and seed, every run — fast or plain engine, any backend,
QoS on or off, active mailboxes on or off — offers *exactly* the same
load: same arrival instants (the trace timestamps are absolute sim
times), same per-client op streams in the same program order, same
deterministic payload bytes.  Nothing about the offered side consults
an RNG, so protocol variants are compared on identical input by
construction rather than by hoping seeds line up.

Structure mirrors :class:`~repro.services.loadgen.LoadGenerator`'s
open-loop mode, with two deliberate differences:

* arrivals come from the trace master walking rows (``yield`` the gap
  to the next timestamp; zero gaps and a first row at the current
  instant dispatch immediately — both legal in traces, though the
  synthetic generator can never produce them);
* each *trace* client gets its own FIFO so per-client program order is
  preserved even when several trace clients share one pool client.

Outcomes are collected per row index and exposed as a canonical,
digestable stream (:meth:`TraceReplayer.outcome_digest`) ordered by row
— independent of completion interleaving — which is what the property
suite pins across engines and backends.
"""

from __future__ import annotations

import json
from _blake2 import blake2s
from collections import deque
from typing import Generator, Optional

from ..core.addressing import stable_hash64
from ..sim.process import AllOf, spawn
from ..services.kv import KvClient
from ..services.loadgen import LoadStats, idle_poll_delay
from ..services.wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SCAN,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOAD,
    encode_request,
)
from .trace import Trace, TraceError

_OP_CODES = {"get": OP_GET, "put": OP_PUT, "delete": OP_DELETE}


def value_for(row_index: int, key: str, value_size: int) -> bytes:
    """The deterministic payload replayed for a put row.

    Traces record value *sizes*, not bytes (production traces rarely
    keep payloads).  Replay synthesizes self-describing fill bytes as a
    pure function of (row index, key), the loadgen fill idiom — so the
    bytes a variant serves back are checkable without any run state.
    """
    fill = (stable_hash64(key.encode("latin-1")) + row_index) % 251 + 1
    return bytes([fill]) * value_size


def request_frames(trace: Trace) -> dict:
    """Every row's request wire frame, per trace client in program order.

    Put rows carry their :func:`value_for` payload; the request id is the
    row index + 1.  The frames are what the protocol-backend differential
    pushes through each wire stack.
    """
    frames: dict[int, list[bytes]] = {tc: [] for tc in trace.clients()}
    for index, row in enumerate(trace.rows):
        value = value_for(index, row.key, row.value_size) if row.op == "put" else b""
        frames[row.client].append(encode_request(
            _OP_CODES.get(row.op, OP_SCAN), row.client, index + 1, row.key_bytes(), value,
            tenant=row.tenant,
        ))
    return frames


class TraceReplayer:
    """Replays a :class:`Trace` against a pool of :class:`KvClient`.

    Trace clients map onto pool clients in sorted order, modulo the
    pool size; the caller picks the pool shape (the harness builds one
    pool client per trace client so tenant stamping matches the trace).
    """

    def __init__(
        self,
        sim,
        clients: list[KvClient],
        trace: Trace,
        deadline_ns: Optional[float] = None,
        max_backlog: Optional[int] = None,
        worker_poll_ns: float = 500.0,
        batch: int = 8,
    ) -> None:
        if not clients:
            raise ValueError("trace replayer needs at least one client")
        if max_backlog is not None and max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
        self.sim = sim
        self.clients = clients
        self.trace = trace
        self.deadline_ns = deadline_ns
        #: Default is "never drop": a replayed trace offers every row so
        #: variant comparisons stay apples-to-apples.  Cap it to study
        #: generator-side shedding under amplified traces.
        self.max_backlog = max_backlog if max_backlog is not None else len(trace.rows) + 1
        self.worker_poll_ns = worker_poll_ns
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        #: Consecutive backlogged rows of one trace client pipelined per
        #: execute_batch — keeps a burst *concurrent* at the server (the
        #: loadgen reply-batching idiom) instead of serializing it into
        #: closed-loop round trips.  Program order per key survives:
        #: frames for one shard travel in issue order and a key always
        #: hashes to the same shard.
        self.batch = batch
        self.stats = LoadStats()
        #: row index -> (op, status, payload bytes), filled as replies land.
        self.outcomes: dict[int, tuple[str, int, bytes]] = {}
        self._client_of = {
            tc: clients[i % len(clients)]
            for i, tc in enumerate(trace.clients())
        }
        for tc in trace.clients():
            pool = self._client_of[tc]
            if pool.tenant_id != trace.tenant_of(tc):
                raise TraceError(
                    f"trace client {tc} carries tenant {trace.tenant_of(tc)} "
                    f"but its pool client is tenant {pool.tenant_id}"
                )
        stats = sim.stats
        self._replayed = stats.counter("workload.trace.rows_replayed")
        self._dropped = stats.counter("workload.trace.rows_dropped")
        self._lag = stats.summary("workload.trace.replay_lag_ns")

    # ------------------------------------------------------------------ driving

    def run(self) -> Generator:
        """Replay every row; returns :class:`LoadStats` when all resolve."""
        spans = self.sim.spans
        sp = None
        if spans.active and spans.wants("trace"):
            sp = spans.begin(
                "trace", "replay",
                trace_id=self.trace.trace_id, n_ops=self.trace.n_ops,
            )
        queues: dict[int, deque] = {tc: deque() for tc in self.trace.clients()}
        queued = [0]
        done = [False]
        # Rows the dispatch loop has handled (queued or dropped).
        dispatched = [0]
        workers = []
        by_pool: dict[int, list[deque]] = {}
        for tc in self.trace.clients():
            by_pool.setdefault(id(self._client_of[tc]), []).append(queues[tc])
        # One worker per distinct pool client, in first-assignment order
        # (trace-client sorted order — deterministic, unlike id()s).
        pools: list[tuple[KvClient, list[deque]]] = []
        seen: set[int] = set()
        for tc in self.trace.clients():
            client = self._client_of[tc]
            if id(client) not in seen:
                seen.add(id(client))
                pools.append((client, by_pool[id(client)]))
        for i, (client, qs) in enumerate(pools):
            mine = {tc for tc in self.trace.clients() if self._client_of[tc] is client}
            workers.append(
                spawn(
                    self.sim,
                    self._worker(client, qs, queued, done, dispatched, mine),
                    name=f"kv-replay{i}",
                )
            )
        for index, row in enumerate(self.trace.rows):
            dt = row.timestamp_ns - self.sim.now
            if dt > 0:
                yield dt
            # dt <= 0: zero-gap row (or float noise) — dispatch now.
            self.stats.ops_issued += 1
            dispatched[0] = index + 1
            if queued[0] >= self.max_backlog:
                self.stats.ops_dropped += 1
                self._dropped.add()
                continue
            queues[row.client].append((index, row))
            queued[0] += 1
        done[0] = True
        if workers:
            yield AllOf(workers)
        if sp is not None:
            spans.end(sp, replayed=self._replayed.value, dropped=self._dropped.value)
        return self.stats

    def _worker(self, client: KvClient, queues: list[deque], queued: list,
                done: list, dispatched: list, mine: set) -> Generator:
        spans = self.sim.spans
        rows = self.trace.rows
        # First undispatched row of a trace client in *mine*
        # (len(rows) when none is left).
        nxt = 0
        while True:
            row_item = None
            src_queue = None
            for q in queues:
                if q:
                    row_item = q.popleft()
                    src_queue = q
                    break
            if row_item is None:
                if done[0]:
                    return
                # No work appears before the next row of this worker's
                # trace clients (or, with none left, before the last
                # row, when ``done`` is set): skip the polls until then.
                nxt = max(nxt, dispatched[0])
                while nxt < len(rows) and rows[nxt].client not in mine:
                    nxt += 1
                work_at = rows[min(nxt, len(rows) - 1)].timestamp_ns
                yield idle_poll_delay(self.sim.now, self.worker_poll_ns, work_at)
                continue
            index, row = row_item
            queued[0] -= 1
            self._replayed.add()
            self._lag.add(self.sim.now - row.timestamp_ns)
            sp = None
            if spans.active and spans.wants("trace"):
                sp = spans.begin(
                    "trace", "dispatch", row=index, op=row.op, client=row.client
                )
            if row.op == "scan":
                items = yield from client.scan(row.key_bytes())
                payload = b"".join(k + b"=" + v + b";" for k, v in items)
                self.outcomes[index] = ("scan", 0, payload)
                self.stats.ops_completed += 1
            else:
                # Coalesce the backlog: further queued rows of this trace
                # client join the pipeline (scans stay solo — their
                # scatter-gather replies don't frame-batch).
                entries = [(index, row)]
                while (
                    len(entries) < self.batch
                    and src_queue
                    and src_queue[0][1].op != "scan"
                ):
                    entries.append(src_queue.popleft())
                    queued[0] -= 1
                for extra_index, extra_row in entries[1:]:
                    self._replayed.add()
                    self._lag.add(self.sim.now - extra_row.timestamp_ns)
                ops = []
                for entry_index, entry_row in entries:
                    value = (
                        value_for(entry_index, entry_row.key, entry_row.value_size)
                        if entry_row.op == "put" else b""
                    )
                    ops.append((_OP_CODES[entry_row.op], entry_row.key_bytes(), value))
                replies = yield from client.execute_batch(
                    ops, t0=row.timestamp_ns, deadline_ns=self.deadline_ns,
                )
                for (entry_index, entry_row), reply in zip(entries, replies):
                    self.outcomes[entry_index] = (
                        entry_row.op, reply.status, bytes(reply.payload or b"")
                    )
                    self.stats.note(_OP_CODES[entry_row.op], reply.status)
            if sp is not None:
                spans.end(sp)

    # ------------------------------------------------------------------ results

    def outcome_stream(self) -> list:
        """Outcomes ordered by row index — the canonical result stream.

        Row order is a property of the trace, not of completion
        interleaving, so two deterministic runs produce identical
        streams iff they resolved every row identically.
        """
        return [
            [index, op, status, payload.decode("latin-1")]
            for index, (op, status, payload) in sorted(self.outcomes.items())
        ]

    def outcome_digest(self) -> str:
        """blake2s over the canonical outcome stream."""
        h = blake2s(digest_size=8)
        for entry in self.outcome_stream():
            h.update(json.dumps(entry, separators=(",", ":")).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


# ------------------------------------------------------------------ safety

#: Possible-state sentinel for "key not stored".
ABSENT = None

_LEGAL_STATUSES = {
    "get": {STATUS_OK, STATUS_NOT_FOUND, STATUS_OVERLOAD, STATUS_DEADLINE_EXCEEDED},
    "delete": {STATUS_OK, STATUS_NOT_FOUND, STATUS_OVERLOAD, STATUS_DEADLINE_EXCEEDED},
    "put": {STATUS_OK, STATUS_OVERLOAD, STATUS_DEADLINE_EXCEEDED},
}


def apply_kv_step(op: str, status: int, value, new_value, possible: set) -> Optional[str]:
    """Advance one key's possible-state set through one op in program order.

    Exact linearizability generalised to lossy outcomes: receiver-
    managed streams keep each client's ops in program order, so the only
    ambiguity is whether a request *executed at all*.  ``RC_OVERLOAD``
    is a definitive not-executed (the server refused before touching the
    store); ``STATUS_DEADLINE_EXCEEDED`` is ambiguous (the frame may be
    quota-rejected at the NIC or may have executed unanswered), so the
    set forks.  A successful GET observes the store and collapses the
    set back to a singleton.  Returns a failure string or None.
    """
    if status == STATUS_OVERLOAD:
        return None  # refused before execution: state unchanged
    if op == "put":
        if status == STATUS_OK:
            possible.clear()
            possible.add(new_value)
        elif status == STATUS_DEADLINE_EXCEEDED:
            possible.add(new_value)
        else:
            return f"put -> {status}"
    elif op == "delete":
        if status == STATUS_OK:
            if not any(v is not ABSENT for v in possible):
                return "delete -> OK on a surely-absent key"
            possible.clear()
            possible.add(ABSENT)
        elif status == STATUS_NOT_FOUND:
            if ABSENT not in possible:
                return "delete -> NOT_FOUND on a surely-present key"
            possible.clear()
            possible.add(ABSENT)
        elif status == STATUS_DEADLINE_EXCEEDED:
            possible.add(ABSENT)
        else:
            return f"delete -> {status}"
    else:  # get: read-only, so an unanswered one never forks the set
        if status == STATUS_OK:
            if value not in possible:
                return f"get observed a value outside the possible set (len {len(value or b'')})"
            possible.clear()
            possible.add(value)
        elif status == STATUS_NOT_FOUND:
            if ABSENT not in possible:
                return "ghost get -> NOT_FOUND on a surely-present key"
            possible.clear()
            possible.add(ABSENT)
        elif status != STATUS_DEADLINE_EXCEEDED:
            return f"get -> {status}"
    return None


def check_replay_safety(trace: Trace, outcomes: dict,
                        warmed: Optional[dict] = None) -> list:
    """Per-key linearizability over a replay's outcomes.

    Keys touched by a single trace client have a total program order
    (receiver-managed streams preserve it end to end), so they get the
    exact possible-state walk of :func:`apply_kv_step`, which the
    scenario runner's KV oracle uses too.  Keys shared across clients
    have no client-side order witness, so they get value-provenance
    checks instead: an OK GET must return a warmed value or some payload
    a put row could have written.  Scans are read-only and excluded.
    Returns a list of failure strings.
    """
    warmed = warmed or {}
    by_key: dict[str, list] = {}
    clients_of: dict[str, set] = {}
    for index, row in enumerate(trace.rows):
        if row.op == "scan":
            continue
        if index not in outcomes:
            continue
        by_key.setdefault(row.key, []).append((index, row))
        clients_of.setdefault(row.key, set()).add(row.client)
    failures = []
    for key, entries in by_key.items():
        if len(clients_of[key]) == 1:
            possible = {warmed[key]} if key in warmed else {ABSENT}
            for index, row in entries:
                op, status, payload = outcomes[index]
                new_value = value_for(index, key, row.value_size) if op == "put" else None
                fail = apply_kv_step(op, status, payload or None, new_value, possible)
                if fail:
                    failures.append(f"key {key!r} row {index}: {fail}")
        else:
            legal = {warmed[key]} if key in warmed else set()
            legal.update(
                value_for(index, key, row.value_size)
                for index, row in entries if row.op == "put"
            )
            for index, row in entries:
                op, status, payload = outcomes[index]
                if op == "get" and status == STATUS_OK and payload not in legal:
                    failures.append(
                        f"key {key!r} row {index}: get observed a value no "
                        f"put ever wrote ({len(payload)}B)"
                    )
                elif status not in _LEGAL_STATUSES.get(op, _LEGAL_STATUSES["get"]):
                    failures.append(f"key {key!r} row {index}: {op} -> {status}")
    return failures
