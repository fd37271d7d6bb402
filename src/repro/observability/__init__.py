"""Unified observability: hierarchical metrics, span tracing, run reports.

Three pieces, one instrumentation surface:

- :class:`MetricsRegistry` sums the :mod:`repro.sim.stats` primitives
  over the instances that registered them under their hierarchical
  names (``nic.rvma.bytes_placed``, ``transport.retransmits``,
  ``recovery.replayed_msgs``), every one declared in
  :data:`~repro.observability.metrics.CATALOG`.
- :class:`SpanTracer` records sim-time/wall-time intervals with parent
  links and per-category enable flags; it is the simulator's one
  tracing path.  Every :class:`~repro.sim.engine.Simulator` owns one at
  ``sim.spans``.
- :class:`RunReport` snapshots both into a JSON + markdown artifact,
  with top-N hottest-span profiling hooks; :func:`scrub_report` zeroes
  its wall-clock fields so replayed reports compare byte for byte.
"""

from repro.observability.metrics import CATALOG, MetricSpec, MetricsRegistry, lookup
from repro.observability.report import RunReport, scrub_report
from repro.observability.spans import Span, SpanTracer

__all__ = [
    "CATALOG",
    "MetricSpec",
    "MetricsRegistry",
    "RunReport",
    "Span",
    "SpanTracer",
    "lookup",
    "scrub_report",
]
