"""The canonical KV trace format: pinned, schema-versioned JSON lines.

One trace file = one header line + one line per op.  The header is a
canonical-JSON object carrying the format kind, the trace schema
version, the row count, seed provenance, and a blake2s ``trace_id``;
every row is a canonical-JSON array::

    [timestamp_ns, tenant, client, op, key, value_size]

mirroring the :mod:`repro.scenarios.schema` discipline: sorted keys,
fixed separators, explicit everything — so a trace's serialized form is
its identity, and two traces with the same rows have the same
``trace_id`` no matter where they were recorded.

Two properties are load bearing for the replay oracles:

* **identity covers rows only** — ``trace_id`` digests the schema
  version plus the canonical row lines, *not* the provenance, so a
  transform that changes no rows (``time_scale(1.0)``) is a true
  identity and transform composition is associative on trace ids;
* **strict decode** — unknown ops, negative or out-of-order timestamps,
  value sizes on non-put ops, clients that switch tenants mid-trace,
  truncated files and header/row disagreements are all
  :class:`TraceError`, never a best-effort repair.  A trace that loads
  is replayable bit-identically.

Timestamps are normalized on construction (integral floats stored as
ints) so transforms that multiply by 1.0 round-trip byte-identically.
"""

from __future__ import annotations

import json
import os
from _blake2 import blake2s
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Header ``kind`` marker — a trace file is self-describing.
TRACE_KIND = "rvma-kv-trace"

#: Bump when the row layout changes; the decoder accepts every version
#: in :data:`SUPPORTED_TRACE_SCHEMAS`.
TRACE_SCHEMA_VERSION = 1
SUPPORTED_TRACE_SCHEMAS = (1,)

#: Row op names (the wire op codes' names, see repro.services.wire).
TRACE_OPS = ("get", "put", "delete", "scan")

#: Only puts carry payload bytes; every other op's value_size must be 0.
_VALUE_OPS = ("put",)

_SEP = (",", ":")


class TraceError(ValueError):
    """A trace document failed validation or decoding."""


def _norm_ts(value) -> float:
    """Canonical timestamp: integral floats collapse to ints.

    ``1500 * 1.0 == 1500.0`` must re-encode as ``1500``, or a
    ``time_scale(1.0)`` transform would change the serialized rows (and
    the trace_id) without changing the trace.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceError(f"timestamp must be a number, got {value!r}")
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise TraceError(f"timestamp must be finite, got {value!r}")
        if value.is_integer():
            return int(value)
    return value


@dataclass(frozen=True)
class TraceRow:
    """One offered op: when, who, what."""

    timestamp_ns: float
    tenant: int
    client: int
    op: str
    key: str
    value_size: int

    def __post_init__(self) -> None:
        # Canonicalize at construction: every TraceRow serializes the
        # same way no matter which path built it (recorder, decoder,
        # transform, or a test constructing rows directly).
        object.__setattr__(self, "timestamp_ns", _norm_ts(self.timestamp_ns))

    def to_list(self) -> list:
        return [
            self.timestamp_ns, self.tenant, self.client,
            self.op, self.key, self.value_size,
        ]

    def to_line(self) -> str:
        """Canonical serialized row (part of the trace identity)."""
        return json.dumps(self.to_list(), separators=_SEP, ensure_ascii=True)

    @classmethod
    def from_list(cls, row) -> "TraceRow":
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise TraceError(f"malformed trace row {row!r} (need 6 fields)")
        ts, tenant, client, op, key, value_size = row
        if isinstance(tenant, bool) or not isinstance(tenant, int):
            raise TraceError(f"trace row tenant must be an int, got {tenant!r}")
        if isinstance(client, bool) or not isinstance(client, int):
            raise TraceError(f"trace row client must be an int, got {client!r}")
        if isinstance(value_size, bool) or not isinstance(value_size, int):
            raise TraceError(f"trace row value_size must be an int, got {value_size!r}")
        return cls(
            timestamp_ns=_norm_ts(ts),
            tenant=tenant,
            client=client,
            op=str(op),
            key=str(key),
            value_size=value_size,
        )

    def validate(self) -> None:
        if self.op not in TRACE_OPS:
            raise TraceError(f"unknown trace op {self.op!r} (have {TRACE_OPS})")
        ts = self.timestamp_ns
        if ts < 0:
            raise TraceError(f"negative timestamp {ts!r}")
        if not 0 <= self.tenant <= 0xFFFF:
            raise TraceError(f"tenant {self.tenant} does not fit the u16 wire field")
        if not 0 <= self.client <= 0xFFFFFFFF:
            raise TraceError(f"client {self.client} does not fit the u32 wire field")
        if not self.key:
            raise TraceError("trace row key must be non-empty")
        if len(self.key) > 0xFFFF:
            raise TraceError(f"key of {len(self.key)} chars exceeds the u16 length field")
        try:
            self.key.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise TraceError(f"key {self.key!r} is not byte-encodable (latin-1)") from exc
        if self.value_size < 0:
            raise TraceError(f"negative value_size {self.value_size}")
        if self.op not in _VALUE_OPS and self.value_size != 0:
            raise TraceError(
                f"op {self.op!r} must have value_size 0, got {self.value_size}"
            )

    def key_bytes(self) -> bytes:
        return self.key.encode("latin-1")


def _rows_digest(schema: int, rows: Iterable[TraceRow]) -> str:
    h = blake2s(digest_size=6)
    h.update(f"{TRACE_KIND}:{schema}\n".encode("utf-8"))
    for row in rows:
        h.update(row.to_line().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Trace:
    """An immutable, validated op trace plus its provenance.

    ``provenance`` records where the rows came from (recording seed,
    workload shape, applied transforms) — documentation, not identity:
    :attr:`trace_id` covers the schema version and rows only.
    """

    rows: tuple = ()
    provenance: dict = field(default_factory=dict)
    schema: int = TRACE_SCHEMA_VERSION

    # ------------------------------------------------------------- identity

    @property
    def trace_id(self) -> str:
        return _rows_digest(self.schema, self.rows)

    @property
    def n_ops(self) -> int:
        return len(self.rows)

    def header_dict(self) -> dict:
        return {
            "kind": TRACE_KIND,
            "schema": self.schema,
            "trace_id": self.trace_id,
            "n_ops": len(self.rows),
            "provenance": self.provenance,
        }

    def to_jsonl(self) -> str:
        """Canonical serialized form: header line + one line per row."""
        lines = [json.dumps(self.header_dict(), sort_keys=True, separators=_SEP)]
        lines.extend(row.to_line() for row in self.rows)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------- queries

    def clients(self) -> tuple:
        """Distinct client ids, sorted (the replayer's endpoint order)."""
        return tuple(sorted({row.client for row in self.rows}))

    def tenants(self) -> tuple:
        """Distinct tenant ids, sorted."""
        return tuple(sorted({row.tenant for row in self.rows}))

    def tenant_of(self, client: int) -> int:
        """The (validated-unique) tenant a client's rows carry."""
        for row in self.rows:
            if row.client == client:
                return row.tenant
        raise KeyError(f"client {client} has no rows in this trace")

    def duration_ns(self) -> float:
        if not self.rows:
            return 0.0
        return self.rows[-1].timestamp_ns - self.rows[0].timestamp_ns

    # ------------------------------------------------------------- building

    @classmethod
    def from_rows(cls, rows, provenance: Optional[dict] = None,
                  schema: int = TRACE_SCHEMA_VERSION) -> "Trace":
        trace = cls(
            rows=tuple(
                row if isinstance(row, TraceRow) else TraceRow.from_list(row)
                for row in rows
            ),
            provenance=dict(provenance or {}),
            schema=schema,
        )
        trace.validate()
        return trace

    def with_rows(self, rows, note: Optional[dict] = None) -> "Trace":
        """Transform helper: new rows, provenance extended with *note*.

        The transform descriptor lands in ``provenance["transforms"]``
        (a list, appended in application order) so a transformed trace
        documents its lineage without that lineage entering the id.
        """
        provenance = dict(self.provenance)
        if note is not None:
            provenance["transforms"] = list(provenance.get("transforms", ())) + [note]
        return Trace.from_rows(rows, provenance=provenance, schema=self.schema)

    # ------------------------------------------------------------- checks

    def validate(self) -> None:
        last_ts = None
        tenant_of: dict = {}
        for i, row in enumerate(self.rows):
            if not isinstance(row, TraceRow):
                raise TraceError(f"row {i} is not a TraceRow")
            row.validate()
            if last_ts is not None and row.timestamp_ns < last_ts:
                raise TraceError(
                    f"row {i} timestamp {row.timestamp_ns!r} out of order "
                    f"(previous {last_ts!r})"
                )
            last_ts = row.timestamp_ns
            seen = tenant_of.setdefault(row.client, row.tenant)
            if seen != row.tenant:
                # A client endpoint belongs to exactly one tenant: the
                # wire stamps the client's tenant into every frame, so a
                # mid-trace switch could never have been recorded.
                raise TraceError(
                    f"row {i}: client {row.client} switches tenant "
                    f"{seen} -> {row.tenant}"
                )

    # ------------------------------------------------------------- codec

    @classmethod
    def decode(cls, text: str) -> "Trace":
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise TraceError("empty trace file (missing header line)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
            raise TraceError(
                f"not a {TRACE_KIND} file (kind={header.get('kind') if isinstance(header, dict) else header!r})"
            )
        schema = header.get("schema")
        if schema not in SUPPORTED_TRACE_SCHEMAS:
            raise TraceError(
                f"unsupported trace schema {schema!r} "
                f"(decoder speaks {SUPPORTED_TRACE_SCHEMAS})"
            )
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: not valid JSON: {exc}") from exc
            rows.append(TraceRow.from_list(doc))
        declared = header.get("n_ops")
        if declared != len(rows):
            raise TraceError(
                f"header declares {declared!r} ops but the file carries "
                f"{len(rows)} (truncated or padded trace)"
            )
        trace = cls.from_rows(
            rows, provenance=header.get("provenance") or {}, schema=int(schema)
        )
        declared_id = header.get("trace_id")
        if declared_id != trace.trace_id:
            raise TraceError(
                f"header trace_id {declared_id!r} does not match the rows "
                f"({trace.trace_id}) — edited or corrupted trace"
            )
        return trace

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.decode(fh.read())

    def save(self, path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return path

    def describe(self) -> str:
        return (
            f"trace {self.trace_id}: {len(self.rows)} ops, "
            f"{len(self.clients())} client(s), tenants {list(self.tenants())}, "
            f"{self.duration_ns():,.0f} ns span"
        )
