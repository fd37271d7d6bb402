"""Pure, composable trace transforms.

Each factory returns a ``Trace -> Trace`` closure.  Transforms never
mutate their input: they build a new row tuple, re-validate it through
:meth:`Trace.with_rows` (so a transform cannot smuggle an out-of-order
or malformed row past the codec), and append a canonical descriptor to
``provenance["transforms"]`` documenting the lineage.  Because the
trace_id digests rows only, the algebra is clean:

* ``time_scale(1.0)`` is a true identity on trace_ids;
* ``compose(f, g)(t).trace_id == g(f(t)).trace_id`` — composition is
  function composition, associative by construction.

All timestamp arithmetic goes through the codec's normalization, so a
scale factor of 1.0 (or any factor that lands on integers) round-trips
byte-identically.
"""

from __future__ import annotations

import math
from typing import Callable

from .trace import Trace, TraceError, TraceRow, _norm_ts

Transform = Callable[[Trace], Trace]


def time_scale(factor: float) -> Transform:
    """Multiply every timestamp by *factor* (>1 stretches, <1 compresses).

    ``time_scale(1.0)`` is the identity on rows (and therefore on
    trace_ids) — the law the property suite pins.
    """
    if factor <= 0:
        raise TraceError(f"time_scale factor must be > 0, got {factor}")

    def apply(trace: Trace) -> Trace:
        rows = tuple(
            TraceRow(_norm_ts(r.timestamp_ns * factor), r.tenant, r.client,
                     r.op, r.key, r.value_size)
            for r in trace.rows
        )
        return trace.with_rows(rows, {"transform": "time_scale", "factor": factor})

    return apply


def amplify_bursts(factor: float, idle_threshold_ns: float = 10_000.0) -> Transform:
    """Sharpen bursts: gaps shorter than the threshold shrink by *factor*.

    Inter-arrival gaps below ``idle_threshold_ns`` (the "inside a
    burst" regime) are divided by *factor*; longer idle gaps are kept,
    so the macro shape (burst spacing) survives while each burst gets
    denser.  Timestamps are rebuilt cumulatively from the first row.
    """
    if factor < 1.0:
        raise TraceError(f"amplify_bursts factor must be >= 1, got {factor}")

    def apply(trace: Trace) -> Trace:
        rows = []
        t = trace.rows[0].timestamp_ns if trace.rows else 0
        for i, r in enumerate(trace.rows):
            if i > 0:
                gap = r.timestamp_ns - trace.rows[i - 1].timestamp_ns
                t = t + (gap / factor if gap < idle_threshold_ns else gap)
            rows.append(TraceRow(_norm_ts(t), r.tenant, r.client,
                                 r.op, r.key, r.value_size))
        return trace.with_rows(rows, {
            "transform": "amplify_bursts",
            "factor": factor,
            "idle_threshold_ns": idle_threshold_ns,
        })

    return apply


def inject_flash_crowd(
    key: str,
    start_ns: float,
    n_ops: int,
    spacing_ns: float,
    client: int,
    tenant: int,
) -> Transform:
    """Merge a hot-key crowd (n_ops GETs on *key*) into the trace.

    The crowd arrives at ``start_ns, start_ns + spacing, ...`` from a
    dedicated *client* (which must either be new or already belong to
    *tenant* — the codec enforces per-client tenant consistency) and is
    stably merged by timestamp: existing rows keep their relative order,
    crowd rows slot in after any equal-timestamp original.
    """
    if n_ops < 1:
        raise TraceError(f"flash crowd needs n_ops >= 1, got {n_ops}")
    if spacing_ns < 0:
        raise TraceError(f"flash crowd spacing must be >= 0, got {spacing_ns}")

    def apply(trace: Trace) -> Trace:
        crowd = [
            TraceRow(_norm_ts(start_ns + i * spacing_ns), tenant, client, "get", key, 0)
            for i in range(n_ops)
        ]
        merged = sorted(
            list(trace.rows) + crowd, key=lambda r: r.timestamp_ns
        )
        return trace.with_rows(merged, {
            "transform": "inject_flash_crowd",
            "key": key, "start_ns": start_ns, "n_ops": n_ops,
            "spacing_ns": spacing_ns, "client": client, "tenant": tenant,
            "op": "get",
        })

    return apply


def diurnal_ramp(period_ns: float, amplitude: float) -> Transform:
    """Impose a smooth load swing: arrivals bunch at the cycle's peak.

    Remaps ``t -> t - A·(P/2π)·sin(2πt/P)``; the map's derivative is
    ``1 - A·cos(2πt/P) > 0`` for ``amplitude < 1``, so it is strictly
    monotone (row order survives) while the instantaneous rate swings
    by ``±amplitude`` around nominal over each period.
    """
    if period_ns <= 0:
        raise TraceError(f"diurnal period must be > 0, got {period_ns}")
    if not 0.0 <= amplitude < 1.0:
        raise TraceError(f"diurnal amplitude must be in [0, 1), got {amplitude}")

    def apply(trace: Trace) -> Trace:
        two_pi = 2.0 * math.pi
        k = amplitude * period_ns / two_pi

        def warp(t: float) -> float:
            return t - k * math.sin(two_pi * t / period_ns)

        rows = tuple(
            TraceRow(_norm_ts(warp(r.timestamp_ns)), r.tenant, r.client,
                     r.op, r.key, r.value_size)
            for r in trace.rows
        )
        return trace.with_rows(rows, {
            "transform": "diurnal_ramp",
            "period_ns": period_ns, "amplitude": amplitude,
        })

    return apply


def tenant_remap(mapping: dict) -> Transform:
    """Relabel tenants (``{old: new}``); unmapped tenants pass through.

    Remapping is per-tenant, so per-client tenant consistency is
    preserved automatically.
    """

    def apply(trace: Trace) -> Trace:
        rows = tuple(
            TraceRow(r.timestamp_ns, mapping.get(r.tenant, r.tenant),
                     r.client, r.op, r.key, r.value_size)
            for r in trace.rows
        )
        return trace.with_rows(rows, {
            "transform": "tenant_remap",
            "mapping": {str(k): v for k, v in sorted(mapping.items())},
        })

    return apply


def compose(*transforms: Transform) -> Transform:
    """Left-to-right composition: ``compose(f, g)(t) == g(f(t))``."""

    def apply(trace: Trace) -> Trace:
        for fn in transforms:
            trace = fn(trace)
        return trace

    return apply
