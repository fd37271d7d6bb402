"""Self-describing scenario documents: the fuzzer's unit of replay.

A :class:`Scenario` pins *everything* a run needs — topology, routing
mode, protocol backend(s), the full fault plan as explicit
events (not a seed that regenerates them), the workload shape, and
every nested seed — into one schema-versioned JSON document.  Two
properties follow:

* **bit-identical replay** — the runner rebuilds the run from the
  document alone, so a scenario file reproduces its failure exactly on
  any machine (``fuzz replay scenario.json``);
* **shrinkability** — because faults and workload steps are explicit
  lists, the auto-shrinker (:mod:`repro.scenarios.shrink`) can drop
  them one at a time and re-check the failure fingerprint.

The canonical serialized form (sorted keys, fixed separators) is the
identity: :attr:`Scenario.scenario_id` is a digest of it, and corpus
files are named after it.
"""

from __future__ import annotations

import json
import os
from _blake2 import blake2s
from dataclasses import dataclass, field, replace
from typing import Any, Optional

#: Bump when the document layout changes; the loader accepts every
#: version in :data:`SUPPORTED_SCHEMAS` and preserves the document's
#: own version on round-trip (so v1 corpus entries keep their identity).
#: v2 added the optional tenant-mix dimension to kv workloads
#: (``qos`` / ``tenant_specs`` / ``client_tenants``).
#: v3 added the optional active-handler dimension to kv workloads
#: (``active`` / ``hot_key_fraction`` / ``handler_word``).
#: v4 added the ``trace`` workload kind: replay a committed exemplar
#: trace (``trace_ref``) through the KV harness with qos/active toggles.
SCHEMA_VERSION = 4
SUPPORTED_SCHEMAS = (1, 2, 3, 4)

#: Workload kinds the runner knows how to drive.
MOTIF_KINDS = ("allreduce", "incast", "halo3d")
WORKLOAD_KINDS = MOTIF_KINDS + ("kv", "differential", "trace")

#: Protocol backends the differential oracle can compare.
BACKENDS = ("rvma", "verbs", "ucx")

ENGINE_MODES = ("fast", "plain")
ROUTING_MODES = ("static", "adaptive")

#: KV script op codes (scripts are [op, key_index, fill] triples).
KV_OPS = ("put", "get", "delete")


class ScenarioError(ValueError):
    """A scenario document failed validation."""


@dataclass(frozen=True)
class FaultEvent:
    """One pinned fault: a window, or a crash/restart pair.

    ``kind`` matches :class:`repro.faults.chaos.ChaosEvent`; ``params``
    are kind-specific (link endpoints, switch id, node ids).
    """

    kind: str  # "link_flap" | "switch_failure" | "partition" | "crash_restart"
    start: float
    end: float
    params: tuple

    def to_list(self) -> list:
        return [self.kind, self.start, self.end, list(self.params)]

    @classmethod
    def from_list(cls, row: list) -> "FaultEvent":
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ScenarioError(f"malformed fault event {row!r}")
        kind, start, end, params = row
        return cls(kind=str(kind), start=float(start), end=float(end), params=tuple(params))


@dataclass(frozen=True)
class Scenario:
    """One fully pinned run of the system under test."""

    seed: int                      # master generator seed (provenance)
    workload_kind: str             # one of WORKLOAD_KINDS
    workload: dict                 # kind-specific parameters
    topology: str                  # dragonfly | fattree | hyperx | torus3d | star
    n_nodes: int
    routing: str = "adaptive"      # static | adaptive
    engine: str = "fast"           # fast | plain; validated, ignored by the runner
    backend: str = "rvma"          # protocol under test (motif/kv scenarios)
    compare: tuple = ()            # backends the differential oracle compares
    reliability: bool = True       # ARQ transport armed (False = known-bad)
    cluster_seed: int = 1          # simulator/RNG seed for the run itself
    fault_events: tuple = ()       # tuple[FaultEvent, ...]
    drop_prob: float = 0.0         # background i.i.d. loss
    audit: bool = True             # attach the InvariantAuditor
    compare_clean: bool = True     # diff against a fault-free reference run
    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------- identity

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "workload_kind": self.workload_kind,
            "workload": _jsonable(self.workload),
            "topology": self.topology,
            "n_nodes": self.n_nodes,
            "routing": self.routing,
            "engine": self.engine,
            "backend": self.backend,
            "compare": list(self.compare),
            "reliability": self.reliability,
            "cluster_seed": self.cluster_seed,
            "fault_events": [ev.to_list() for ev in self.fault_events],
            "drop_prob": self.drop_prob,
            "audit": self.audit,
            "compare_clean": self.compare_clean,
        }

    def to_json(self) -> str:
        """Canonical serialized form (the identity basis)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def scenario_id(self) -> str:
        """Stable short id: digest of the canonical serialization."""
        return blake2s(self.to_json().encode("utf-8"), digest_size=6).hexdigest()

    # ------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        schema = doc.get("schema")
        if schema not in SUPPORTED_SCHEMAS:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r} (runner speaks {SUPPORTED_SCHEMAS})"
            )
        try:
            scenario = cls(
                schema=int(schema),
                seed=int(doc["seed"]),
                workload_kind=str(doc["workload_kind"]),
                workload=dict(doc["workload"]),
                topology=str(doc["topology"]),
                n_nodes=int(doc["n_nodes"]),
                routing=str(doc.get("routing", "adaptive")),
                engine=str(doc.get("engine", "fast")),
                backend=str(doc.get("backend", "rvma")),
                compare=tuple(doc.get("compare", ())),
                reliability=bool(doc.get("reliability", True)),
                cluster_seed=int(doc.get("cluster_seed", 1)),
                fault_events=tuple(
                    FaultEvent.from_list(row) for row in doc.get("fault_events", ())
                ),
                drop_prob=float(doc.get("drop_prob", 0.0)),
                audit=bool(doc.get("audit", True)),
                compare_clean=bool(doc.get("compare_clean", True)),
            )
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario document: {exc!r}") from exc
        scenario.validate()
        return scenario

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2))
            fh.write("\n")
        return path

    # ------------------------------------------------------------- checks

    def validate(self) -> None:
        if self.workload_kind not in WORKLOAD_KINDS:
            raise ScenarioError(f"unknown workload kind {self.workload_kind!r}")
        if self.topology not in ("dragonfly", "fattree", "hyperx", "torus3d", "star"):
            raise ScenarioError(f"unknown topology {self.topology!r}")
        if self.routing not in ROUTING_MODES:
            raise ScenarioError(f"unknown routing mode {self.routing!r}")
        if self.engine not in ENGINE_MODES:
            raise ScenarioError(f"unknown engine mode {self.engine!r}")
        if self.backend not in BACKENDS:
            raise ScenarioError(f"unknown backend {self.backend!r}")
        if self.n_nodes < 2:
            raise ScenarioError("scenarios need at least 2 nodes")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ScenarioError("drop_prob must be in [0, 1]")
        if self.workload_kind == "differential":
            unknown = [b for b in self.compare if b not in BACKENDS]
            if unknown:
                raise ScenarioError(f"unknown differential backends {unknown}")
            if len(self.compare) < 2:
                raise ScenarioError("differential scenarios compare >= 2 backends")
            channels = self.workload.get("channels") or ()
            if not channels:
                raise ScenarioError("differential scenarios need channels")
            for row in channels:
                src, dst, n_msgs = row
                if src == dst:
                    raise ScenarioError("differential channel src == dst")
                if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                    raise ScenarioError(f"channel {row} outside the {self.n_nodes}-node cluster")
                if n_msgs < 1:
                    raise ScenarioError("differential channels need >= 1 message")
        if self.workload_kind == "kv":
            scripts = self.workload.get("scripts") or ()
            if not scripts:
                raise ScenarioError("kv scenarios need at least one client script")
            if len(scripts) + 1 > self.n_nodes:
                raise ScenarioError("kv scenarios need a node per client plus the server")
            for script in scripts:
                for step in script:
                    op, key_i, fill = step
                    if op not in KV_OPS:
                        raise ScenarioError(f"unknown kv op {op!r}")
                    if key_i < 0 or not 0 <= fill <= 255:
                        raise ScenarioError(f"malformed kv step {step!r}")
            self._validate_kv_tenancy(scripts)
            self._validate_kv_active()
        if self.workload_kind == "trace":
            self._validate_trace()
        for ev in self.fault_events:
            if ev.kind not in ("link_flap", "switch_failure", "partition", "crash_restart"):
                raise ScenarioError(f"unknown fault kind {ev.kind!r}")
            if ev.end <= ev.start:
                raise ScenarioError(f"fault event {ev.kind} has end <= start")

    def _validate_kv_tenancy(self, scripts) -> None:
        """The v2 tenant-mix keys (all optional, but consistent when used).

        ``qos`` arms admission + weighted-fair service on the scenario's
        KV server; ``tenant_specs`` rows are ``[tenant_id, weight,
        admit_rate_bytes_per_us, nic_quota_bytes_per_us]``;
        ``client_tenants`` assigns each script a tenant id.
        """
        qos = self.workload.get("qos", False)
        specs = self.workload.get("tenant_specs")
        client_tenants = self.workload.get("client_tenants")
        if not (qos or specs is not None or client_tenants is not None):
            return
        if self.schema < 2:
            raise ScenarioError("kv tenant-mix keys need scenario schema >= 2")
        if not isinstance(qos, bool):
            raise ScenarioError("kv workload 'qos' must be a boolean")
        known = set()
        for row in specs or ():
            if not isinstance(row, (list, tuple)) or len(row) != 4:
                raise ScenarioError(f"malformed tenant spec {row!r}")
            tid, weight, admit_rate, nic_rate = row
            if not 0 <= int(tid) <= 0xFFFF:
                raise ScenarioError(f"tenant id {tid!r} does not fit the wire field")
            if float(weight) <= 0:
                raise ScenarioError(f"tenant {tid} needs a positive weight")
            if float(admit_rate) < 0 or float(nic_rate) < 0:
                raise ScenarioError(f"tenant {tid} rates must be >= 0")
            known.add(int(tid))
        if client_tenants is not None:
            if len(client_tenants) != len(scripts):
                raise ScenarioError("client_tenants must assign every kv script")
            for tid in client_tenants:
                if int(tid) not in known:
                    raise ScenarioError(f"client tenant {tid} has no tenant spec")
        if qos and not known:
            raise ScenarioError("qos kv scenarios need tenant_specs")

    def _validate_kv_active(self) -> None:
        """The v3 active-handler keys (all optional, strict when used).

        ``active`` arms the NIC-side GET short-circuit on the scenario's
        KV server; ``hot_key_fraction`` picks the slice of each client's
        keyspace registered hot (the runner derives the concrete key set
        deterministically); ``handler_word`` mixes in an atomic word
        handler on each client's reply mailbox.
        """
        active = self.workload.get("active", False)
        fraction = self.workload.get("hot_key_fraction")
        word = self.workload.get("handler_word", False)
        if not (active or fraction is not None or word):
            return
        if self.schema < 3:
            raise ScenarioError("kv active-handler keys need scenario schema >= 3")
        if not isinstance(active, bool):
            raise ScenarioError("kv workload 'active' must be a boolean")
        if not isinstance(word, bool):
            raise ScenarioError("kv workload 'handler_word' must be a boolean")
        if fraction is not None:
            if not active:
                raise ScenarioError("hot_key_fraction is meaningless without active=true")
            if not 0.0 < float(fraction) <= 1.0:
                raise ScenarioError("hot_key_fraction must be in (0, 1]")

    def _validate_trace(self) -> None:
        """The v4 trace-replay workload: a committed exemplar + toggles.

        ``trace_ref`` names an entry in the exemplar registry
        (:data:`repro.workloads.EXEMPLARS`) — replay is only meaningful
        against a pinned trace identity, so arbitrary paths are not a
        scenario dimension.  ``qos`` / ``active`` arm the server-side
        feature toggles the replay A/B harness compares.
        """
        from ..workloads.exemplars import EXEMPLARS

        if self.schema < 4:
            raise ScenarioError("trace scenarios need scenario schema >= 4")
        ref = self.workload.get("trace_ref")
        info = EXEMPLARS.get(ref) if isinstance(ref, str) else None
        if info is None:
            raise ScenarioError(
                f"trace_ref {ref!r} is not a committed exemplar "
                f"(have {tuple(sorted(EXEMPLARS))})"
            )
        for key in ("qos", "active"):
            if not isinstance(self.workload.get(key, False), bool):
                raise ScenarioError(f"trace workload {key!r} must be a boolean")
        if self.n_nodes < 1 + info.clients:
            raise ScenarioError(
                f"trace scenarios need a node per trace client plus the "
                f"server ({1 + info.clients} for {ref!r}, got {self.n_nodes})"
            )

    # ------------------------------------------------------------- shrinking aids

    @property
    def crash_count(self) -> int:
        return sum(1 for ev in self.fault_events if ev.kind == "crash_restart")

    def workload_size(self) -> int:
        """Abstract workload weight (steps/messages), for shrink ordering."""
        w = self.workload
        if self.workload_kind == "allreduce":
            return int(w["iterations"]) * int(w["vector_len"])
        if self.workload_kind == "incast":
            return int(w["msgs_per_client"]) * max(1, int(w["msg_bytes"]) // 256)
        if self.workload_kind == "halo3d":
            return int(w["iterations"]) * max(1, int(w["msg_bytes"]) // 256)
        if self.workload_kind == "kv":
            return sum(len(s) for s in w["scripts"])
        if self.workload_kind == "trace":
            from ..workloads.exemplars import EXEMPLARS

            rows = EXEMPLARS[w["trace_ref"]].rows
            # Toggles add weight so the shrinker can strictly shrink by
            # disarming them before giving up on the (fixed-size) trace.
            return rows + (1 if w.get("qos") else 0) + (1 if w.get("active") else 0)
        return sum(int(n) for _s, _d, n in w["channels"]) * max(1, len(self.compare) - 1)

    def size(self) -> int:
        """Total shrink-ordering weight: strictly decreasing under every
        transformation the shrinker applies."""
        return (
            self.n_nodes
            + len(self.fault_events)
            + (1 if self.drop_prob > 0 else 0)
            + (1 if self.routing == "adaptive" else 0)
            + self.workload_size()
        )

    def with_changes(self, **kw: Any) -> "Scenario":
        return replace(self, **kw)

    def describe(self) -> str:
        return (
            f"scenario {self.scenario_id}: {self.workload_kind} on "
            f"{self.topology}/{self.n_nodes}n ({self.routing} routing, "
            f"{self.engine} engine, backend {self.backend}"
            + (f" vs {','.join(b for b in self.compare if b != self.backend)}"
               if self.compare else "")
            + f"), {len(self.fault_events)} fault event(s), "
            f"drop_prob {self.drop_prob:.2f}, cluster_seed {self.cluster_seed}"
            + ("" if self.reliability else ", RELIABILITY OFF")
        )


def _jsonable(value: Any) -> Any:
    """Deep-convert tuples to lists so canonical JSON is stable."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
