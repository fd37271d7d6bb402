"""Result tables: fixed-width text for terminals, markdown for docs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ExperimentResult:
    """One experiment's regenerated table plus headline numbers."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    #: headline metrics, e.g. {"max_reduction_pct": 63.1}
    summary: dict = field(default_factory=dict)
    #: the paper's reported values for EXPERIMENTS.md comparison
    paper_claims: dict = field(default_factory=dict)
    #: one observability snapshot per run of the sweep
    #: (:class:`repro.observability.RunReport`); empty unless the sweep
    #: was invoked with ``observe=True``.
    run_reports: list = field(default_factory=list)

    @property
    def run_report(self) -> Any:
        """The sweep's runs merged under ``{"harness": name, "seeds": [...]}``."""
        if not self.run_reports:
            return None
        from ..observability import RunReport

        meta = {"harness": self.name, "seeds": self.summary["seeds"]}
        return RunReport.merge(self.run_reports, meta=meta)

    def to_text(self) -> str:
        """Fixed-width terminal rendering of the table."""
        return format_table(self.headers, self.rows, title=self.title)

    def to_markdown(self) -> str:
        """Markdown rendering with summary/paper-claim footnotes."""
        lines = [f"### {self.name}: {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
        if self.summary or self.paper_claims:
            lines.append("")
            for k, v in self.summary.items():
                claim = self.paper_claims.get(k)
                suffix = f" (paper: {_fmt(claim)})" if claim is not None else ""
                lines.append(f"- **{k}** = {_fmt(v)}{suffix}")
        lines.append("")
        return "\n".join(lines)


def save_run_report(report, path: str) -> None:
    """Write a RunReport as JSON to *path* and as markdown to ``<path>.md``."""
    report.save(path)
    with open(path + ".md", "w", encoding="utf-8") as fh:
        fh.write(report.to_markdown())
        fh.write("\n")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned fixed-width table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
