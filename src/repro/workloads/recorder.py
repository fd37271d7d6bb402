"""Capture a live KV run into a :class:`~repro.workloads.trace.Trace`.

The recorder sits on the client side of the wire: every op a
:class:`~repro.services.kv.KvClient` issues — batch ops and scans alike
— is noted at its batch anchor time (the ``t0`` the client stamps into
the request deadline math), so the recorded timestamps are exactly the
arrival times an open-loop generator fed the client, not the times the
transport got around to sending frames.  Replaying the trace therefore
re-offers the original load shape even when the original run's service
path was congested.

Determinism: notes arrive in simulator callback order, which is itself
deterministic, and :meth:`TraceRecorder.finish` stable-sorts rows by
timestamp — so the same run records the same trace bytes, always.
Rows can be *globally* out of timestamp order before the sort because a
backlogged open-loop worker issues a batch anchored at its queue-entry
time after a fresher batch from an idle worker; the stable sort
restores the canonical non-decreasing order the codec requires while
preserving each client's program order for equal timestamps.
"""

from __future__ import annotations

from typing import Optional

from ..services.wire import OP_NAMES
from .trace import Trace, TraceError, TraceRow, _norm_ts


class TraceRecorder:
    """Accumulates offered ops from attached clients into a Trace."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._rows: list[TraceRow] = []
        self._recorded = sim.stats.counter("workload.trace.rows_recorded")

    # ------------------------------------------------------------- capture

    def attach(self, *clients) -> "TraceRecorder":
        """Hook one or more KvClients; every op they issue is recorded."""
        for client in clients:
            client.recorder = self
        return self

    def note(self, t_ns: float, tenant: int, client_id: int,
             op_code: int, key: bytes, value_size: int) -> None:
        """Record one offered op (called from the KvClient hot path)."""
        name = OP_NAMES.get(op_code)
        if name is None:
            raise TraceError(f"cannot record unknown op code {op_code!r}")
        self._rows.append(TraceRow(
            timestamp_ns=_norm_ts(t_ns),
            tenant=tenant,
            client=client_id,
            op=name,
            key=bytes(key).decode("latin-1"),
            value_size=value_size if name == "put" else 0,
        ))
        self._recorded.add()

    # ------------------------------------------------------------- output

    def finish(self, provenance: Optional[dict] = None) -> Trace:
        """Freeze the recording into a validated Trace.

        Stable sort by timestamp: per-client program order survives ties,
        and the global order becomes the canonical non-decreasing one.
        """
        rows = sorted(self._rows, key=lambda r: r.timestamp_ns)
        return Trace.from_rows(rows, provenance=provenance)
