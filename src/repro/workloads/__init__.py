"""Trace-driven workloads: record, transform and replay KV load shapes.

The :class:`LoadGenerator` synthesizes arrivals; this package captures
them (or any live :class:`KvClient` run) into a pinned, schema-versioned
trace file and replays that file bit-identically — same arrival
instants, same per-client op order, same payload bytes — across
backends and feature toggles, so every existing oracle becomes
an A/B instrument over *identical* offered load.

- :mod:`repro.workloads.trace` — the canonical JSON-lines codec
  (header + rows, blake2s trace_id over rows only, strict decode);
- :mod:`repro.workloads.recorder` — TraceRecorder hooks into KvClient;
- :mod:`repro.workloads.replayer` — TraceReplayer open-loop driver with
  canonical outcome streams, per-key replay safety checks and the
  possible-state KV oracle (:func:`apply_kv_step`) they share with the
  scenario runner;
- :mod:`repro.workloads.transforms` — pure Trace→Trace closures
  (time-scale, burst amplification, flash-crowd injection, diurnal
  ramp, tenant remap) with an associative composition law;
- :mod:`repro.workloads.exemplars` — the committed traces under
  ``corpus/traces/`` with pinned identities.
"""

from .exemplars import EXEMPLAR_NAMES, EXEMPLARS, load_exemplar
from .recorder import TraceRecorder
from .replayer import TraceReplayer, apply_kv_step, check_replay_safety, request_frames, value_for
from .trace import (
    SUPPORTED_TRACE_SCHEMAS,
    TRACE_KIND,
    TRACE_OPS,
    TRACE_SCHEMA_VERSION,
    Trace,
    TraceError,
    TraceRow,
)
from .transforms import (
    amplify_bursts,
    compose,
    diurnal_ramp,
    inject_flash_crowd,
    tenant_remap,
    time_scale,
)

__all__ = [
    "EXEMPLARS",
    "EXEMPLAR_NAMES",
    "SUPPORTED_TRACE_SCHEMAS",
    "TRACE_KIND",
    "TRACE_OPS",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "TraceReplayer",
    "TraceRow",
    "amplify_bursts",
    "apply_kv_step",
    "check_replay_safety",
    "compose",
    "diurnal_ramp",
    "inject_flash_crowd",
    "load_exemplar",
    "request_frames",
    "tenant_remap",
    "time_scale",
    "value_for",
]
