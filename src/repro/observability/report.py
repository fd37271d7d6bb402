"""Run reports: one JSON/markdown artifact answering "what did this run do?".

A :class:`RunReport` snapshots the federated metrics (grouped
hierarchically), the span rollup (per-category counts and durations,
plus the top-N hottest spans by sim-time and wall-time), and arbitrary
run metadata.  The chaos and experiment harnesses build one per run and
the CLI writes it out via ``--metrics-out``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.observability.metrics import MetricsRegistry, lookup
from repro.observability.spans import SpanTracer

#: Hottest spans a report keeps, by sim time and by wall time.
TOP_N = 10


class RunReport:
    """Immutable-ish snapshot of one run's observable state."""

    def __init__(
        self,
        metrics: dict[str, dict[str, Any]],
        span_summary: dict[str, dict],
        span_categories: list[str],
        hottest_sim: list[dict],
        hottest_wall: list[dict],
        meta: Optional[dict] = None,
    ) -> None:
        self.metrics = metrics
        self.span_summary = span_summary
        self.span_categories = span_categories
        self.hottest_sim = hottest_sim
        self.hottest_wall = hottest_wall
        self.meta = dict(meta or {})

    # -- construction -----------------------------------------------------

    @classmethod
    def collect(
        cls,
        target: Any,
        meta: Optional[dict] = None,
    ) -> "RunReport":
        """Snapshot *target* (a Simulator or anything with ``.sim``)."""
        sim = getattr(target, "sim", target)
        registry = MetricsRegistry.collect(sim)
        spans: Optional[SpanTracer] = getattr(sim, "spans", None)
        if spans is not None:
            span_summary = spans.summary()
            categories = spans.categories()
            hot_sim = [s.to_dict() for s in spans.top_by_sim_time(TOP_N)]
            hot_wall = [s.to_dict() for s in spans.top_by_wall_time(TOP_N)]
        else:
            span_summary, categories, hot_sim, hot_wall = {}, [], [], []
        return cls(
            metrics=registry.snapshot(),
            span_summary=span_summary,
            span_categories=categories,
            hottest_sim=hot_sim,
            hottest_wall=hot_wall,
            meta=meta,
        )

    @classmethod
    def merge(cls, reports: list["RunReport"], meta: Optional[dict] = None) -> "RunReport":
        """Combine reports from several runs (e.g. a chaos sweep's cells).

        Counters sum; summary stat-dicts recombine by weighted mean and
        min/max envelope (stddev is dropped — it cannot be recovered
        from the flattened form); histogram dicts with identical binning
        sum element-wise.  Span rollups sum; hottest lists interleave
        and re-truncate.
        """
        merged_metrics: dict[str, dict[str, Any]] = {}
        for rep in reports:
            for group, values in rep.metrics.items():
                out = merged_metrics.setdefault(group, {})
                for name, value in values.items():
                    if name not in out:
                        out[name] = _copy_value(value)
                    else:
                        out[name] = _combine_value(out[name], value)
        span_summary: dict[str, dict] = {}
        for rep in reports:
            for cat, row in rep.span_summary.items():
                agg = span_summary.setdefault(
                    cat, {"count": 0, "open": 0, "sim_ns": 0.0, "wall_s": 0.0}
                )
                for k in agg:
                    agg[k] += row.get(k, 0)
        categories = sorted({c for rep in reports for c in rep.span_categories})
        top_n = max((len(rep.hottest_sim) for rep in reports), default=0)
        hot_sim = sorted(
            (s for rep in reports for s in rep.hottest_sim),
            key=lambda s: s.get("sim_time", 0.0),
            reverse=True,
        )[:top_n]
        hot_wall = sorted(
            (s for rep in reports for s in rep.hottest_wall),
            key=lambda s: s.get("wall_time", 0.0),
            reverse=True,
        )[:top_n]
        merged_meta = dict(meta or {})
        merged_meta.setdefault("merged_runs", len(reports))
        return cls(merged_metrics, span_summary, categories, hot_sim, hot_wall, merged_meta)

    # -- queries ----------------------------------------------------------

    def metric_names(self) -> list[str]:
        return sorted(n for values in self.metrics.values() for n in values)

    def groups(self) -> list[str]:
        return sorted(self.metrics)

    def undocumented(self) -> list[str]:
        """Report metrics the CATALOG does not declare (should be empty)."""
        return [n for n in self.metric_names() if lookup(n) is None]

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "metrics": self.metrics,
            "spans": {
                "categories": list(self.span_categories),
                "summary": self.span_summary,
                "hottest_by_sim_time": self.hottest_sim,
                "hottest_by_wall_time": self.hottest_wall,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> str:
        """Write JSON to *path* (and markdown next to it for ``.json`` paths)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    def to_markdown(self) -> str:
        """Human-readable report: metadata, metric tables, span rollup."""
        lines: list[str] = ["# Run report", ""]
        if self.meta:
            lines.append("## Metadata")
            lines.append("")
            for k in sorted(self.meta):
                lines.append(f"- **{k}**: {self.meta[k]}")
            lines.append("")
        lines.append("## Metrics")
        for group in sorted(self.metrics):
            lines.append("")
            lines.append(f"### {group}")
            lines.append("")
            lines.append("| metric | value | unit |")
            lines.append("|---|---|---|")
            for name in sorted(self.metrics[group]):
                value = self.metrics[group][name]
                spec = lookup(name)
                unit = spec.unit if spec else "?"
                lines.append(f"| `{name}` | {_render_value(value)} | {unit} |")
        if self.span_summary:
            lines.append("")
            lines.append("## Spans")
            lines.append("")
            lines.append("| category | spans | open | total sim ns | total wall s |")
            lines.append("|---|---|---|---|---|")
            for cat in sorted(self.span_summary):
                row = self.span_summary[cat]
                lines.append(
                    f"| `{cat}` | {row['count']} | {row['open']} "
                    f"| {row['sim_ns']:.0f} | {row['wall_s']:.6f} |"
                )
            if self.hottest_sim:
                lines.append("")
                lines.append("### Hottest spans by sim-time")
                lines.append("")
                lines.append("| category | name | sim ns | wall s |")
                lines.append("|---|---|---|---|")
                for s in self.hottest_sim:
                    lines.append(
                        f"| `{s['category']}` | {s['name']} "
                        f"| {s['sim_time']:.0f} | {s['wall_time']:.6f} |"
                    )
            if self.hottest_wall:
                lines.append("")
                lines.append("### Hottest spans by wall-time")
                lines.append("")
                lines.append("| category | name | sim ns | wall s |")
                lines.append("|---|---|---|---|")
                for s in self.hottest_wall:
                    lines.append(
                        f"| `{s['category']}` | {s['name']} "
                        f"| {s['sim_time']:.0f} | {s['wall_time']:.6f} |"
                    )
        lines.append("")
        return "\n".join(lines)


def scrub_report(doc: dict) -> dict:
    """Zero every wall-clock field so replayed reports are byte-identical.

    Simulated time is deterministic; host wall time is not.  Spans carry
    both, and the hottest-by-wall-time ranking is ordered by wall time,
    so it is dropped entirely rather than re-sorted.
    """

    def walk(obj):
        if isinstance(obj, dict):
            out = {}
            for key, value in obj.items():
                if key == "hottest_by_wall_time":
                    out[key] = []
                elif key in ("wall_s", "wall_time", "wall_start", "wall_end"):
                    out[key] = 0.0
                else:
                    out[key] = walk(value)
            return out
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(doc)


def _copy_value(value: Any) -> Any:
    if isinstance(value, dict):
        out = dict(value)
        if "bins" in out:
            out["bins"] = list(out["bins"])
        return out
    return value


def _combine_value(a: Any, b: Any) -> Any:
    """Merge two flattened metric values of the same canonical name."""
    if isinstance(a, dict) and isinstance(b, dict):
        if "bins" in a and "bins" in b:  # histogram dicts
            if (a["lo"], a["hi"], a["nbins"]) != (b["lo"], b["hi"], b["nbins"]):
                raise ValueError("cannot merge histograms with different binning")
            return {
                **a,
                "count": a["count"] + b["count"],
                "underflow": a["underflow"] + b["underflow"],
                "overflow": a["overflow"] + b["overflow"],
                "bins": [x + y for x, y in zip(a["bins"], b["bins"])],
            }
        # summary dicts: weighted mean, envelope min/max, drop stddev
        n = a["n"] + b["n"]
        if n == 0:
            return dict(a)
        if a["n"] == 0:
            return dict(b)
        if b["n"] == 0:
            return dict(a)
        return {
            "n": n,
            "mean": (a["mean"] * a["n"] + b["mean"] * b["n"]) / n,
            "min": min(a["min"], b["min"]),
            "max": max(a["max"], b["max"]),
            "stddev": 0.0,
            "total": a["total"] + b["total"],
        }
    return a + b


def _render_value(value: Any) -> str:
    if isinstance(value, dict):
        if "bins" in value:
            return f"n={value['count']} over [{value['lo']:.0f}, {value['hi']:.0f}) ×{value['nbins']}"
        return (
            f"n={value['n']} mean={value['mean']:.2f} "
            f"min={value['min']:.2f} max={value['max']:.2f}"
        )
    return str(value)
