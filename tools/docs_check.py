#!/usr/bin/env python3
"""Documentation drift gate (``make docs-check``).

Six checks, all fatal on failure:

1. **API coverage** — every public symbol exported from
   ``repro.__init__`` (its ``__all__``) and every public method of
   :class:`repro.core.api.RvmaApi` must appear by name in
   ``docs/API.md``.
2. **Metric catalog coverage** — every canonical metric declared in
   :data:`repro.observability.metrics.CATALOG` must be documented by
   name in ``docs/OBSERVABILITY.md`` (and vice versa: names in the doc's
   catalog table that the code no longer declares are flagged).
3. **Metric catalog rows** — every ``CATALOG`` entry must have a row
   in the ``docs/OBSERVABILITY.md`` catalog table carrying the same
   kind/unit the CATALOG declares (oracles and conformance suites read
   these metrics by name, so their documented shape is load-bearing).
4. **Ledger cell coverage** — every cell of the cost ledger
   (``LEDGER`` in ``tests/properties/test_cost_ledger.py``) must appear
   in the ``docs/PERFORMANCE.md`` ledger table, and every cell the table
   names must still have a ledger row.
5. **Live report coverage** — one small chaos run with observability on
   must produce a report whose metric groups include
   nic/transport/recovery/fabric, with >= 3 span categories, and with
   every reported metric declared in the CATALOG (hence documented, by
   check 2).
6. **Dotted name resolution** — every backticked dotted ``repro.`` name
   (optionally ``~``-prefixed, as Sphinx roles write it) in
   ``docs/*.md`` and ``README.md`` must import or resolve by
   ``getattr``, so a deleted or renamed module, class or function
   cannot linger in the prose.  Names the API generator cut off with
   ``...`` are skipped.

Run from the repo root:

    PYTHONPATH=src python tools/docs_check.py
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "API.md"
OBS_MD = ROOT / "docs" / "OBSERVABILITY.md"
PERF_MD = ROOT / "docs" / "PERFORMANCE.md"
LEDGER_PY = ROOT / "tests" / "properties" / "test_cost_ledger.py"


def check_api_coverage() -> list[str]:
    import repro
    from repro.core.api import RvmaApi

    text = API_MD.read_text(encoding="utf-8")
    problems = []
    for symbol in sorted(repro.__all__):
        if symbol == "__version__":
            continue
        if not re.search(rf"`{re.escape(symbol)}[`(.]", text):
            problems.append(f"docs/API.md: missing public symbol `{symbol}`")
    for name in sorted(vars(RvmaApi)):
        if name.startswith("_") or not callable(getattr(RvmaApi, name)):
            continue
        if not re.search(rf"`{re.escape(name)}[`(]", text):
            problems.append(f"docs/API.md: missing RvmaApi method `{name}`")
    return problems


def check_metric_catalog() -> list[str]:
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    if not text:
        return ["docs/OBSERVABILITY.md: file missing"]
    documented = set(re.findall(r"`([a-z_*.]+\.[a-z_*.]+)`", text))
    for name in sorted(CATALOG):
        if name not in documented:
            problems.append(f"docs/OBSERVABILITY.md: missing metric `{name}`")
    # Stale names: dotted metric-looking entries in the doc's catalog
    # tables that the code no longer declares.
    catalog_section = text.split("## Span categories")[0]
    for name in sorted(set(re.findall(r"\| `([a-z_*.]+\.[a-z_*.]+)` \|", catalog_section))):
        if name not in CATALOG:
            problems.append(
                f"docs/OBSERVABILITY.md: stale metric `{name}` (not in CATALOG)"
            )
    return problems


def check_metric_rows() -> list[str]:
    from repro.observability.metrics import CATALOG

    text = OBS_MD.read_text(encoding="utf-8") if OBS_MD.exists() else ""
    problems = []
    rows = {
        name: (kind, unit)
        for name, kind, unit in re.findall(r"\| `([a-z_*.]+)` \| (\w+) \| (\w+) \|", text)
    }
    for name, spec in sorted(CATALOG.items()):
        row = rows.get(name)
        if row is None:
            problems.append(
                f"docs/OBSERVABILITY.md: no catalog-table row for `{name}`"
            )
        elif row != (spec.kind, spec.unit):
            problems.append(
                f"docs/OBSERVABILITY.md: `{name}` documented as "
                f"{row[0]}/{row[1]}, CATALOG declares {spec.kind}/{spec.unit}"
            )
    return problems


def ledger_cells() -> set[str]:
    """The cell names of the cost ledger, read without importing the test."""
    tree = ast.parse(LEDGER_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LEDGER":
            return set(ast.literal_eval(node.value))
    raise LookupError(f"{LEDGER_PY}: no LEDGER assignment")


def check_ledger_cells() -> list[str]:
    text = PERF_MD.read_text(encoding="utf-8") if PERF_MD.exists() else ""
    problems = []
    if not text:
        return ["docs/PERFORMANCE.md: file missing"]
    ledger = ledger_cells()
    documented = set(re.findall(r"^\| `([a-z0-9-]+)` \|", text, flags=re.M))
    for name in sorted(ledger - documented):
        problems.append(
            f"docs/PERFORMANCE.md: ledger cell `{name}` missing from the ledger table"
        )
    for name in sorted(documented - ledger):
        problems.append(
            f"docs/PERFORMANCE.md: stale ledger cell `{name}` (no LEDGER row)"
        )
    return problems


def check_live_report() -> list[str]:
    from repro.experiments.chaos import run_motif_under_chaos

    out = run_motif_under_chaos(
        "allreduce", seed=1, n_crashes=1, observe=True, trace=True,
        compare_clean=False,
    )
    rep = out.run_report
    problems = []
    groups = set(rep.groups())
    for required in ("nic", "transport", "recovery", "fabric"):
        if required not in groups:
            problems.append(f"live report: metric group '{required}' missing ({sorted(groups)})")
    if len(rep.span_categories) < 3:
        problems.append(
            f"live report: only {len(rep.span_categories)} span categories "
            f"({rep.span_categories}); need >= 3"
        )
    for name in rep.undocumented():
        problems.append(f"live report: metric `{name}` not declared in CATALOG")
    return problems


#: A backticked dotted ``repro.`` name, ending at its closing backtick
#: or at the ``...`` of a truncated API.md summary line.
_REPRO_NAME = re.compile(r"`~?(repro(?:\.\w+)+)(`|\.\.\.)")


def resolves(dotted: str) -> bool:
    """Whether *dotted* names a module, or an attribute reached from the
    longest importable module prefix by ``getattr``."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_names() -> list[str]:
    problems = []
    for path in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for name, end in _REPRO_NAME.findall(line):
                if end == "`" and not resolves(name):
                    problems.append(
                        f"{path.relative_to(ROOT)}:{lineno}: `{name}` does not resolve"
                    )
    return problems


def main() -> int:
    problems = []
    problems += check_api_coverage()
    problems += check_metric_catalog()
    problems += check_metric_rows()
    problems += check_ledger_cells()
    problems += check_live_report()
    problems += check_dotted_names()
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        "docs-check: API.md, OBSERVABILITY.md and PERFORMANCE.md cover every "
        "public symbol, metric and ledger cell; every documented repro name resolves"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
