"""Compare two sets of benchmark result files, workload by workload.

    python bench/compare.py A/ B/

A and B are ``--out`` directories of ``bench/run.py``, one JSON file per run.
For every host-measured metric it prints each side's median and quartiles,
the change of B's median against A's in the metric's worse direction, and the
bound from ``BENCHMARK.json``.  A metric is ``unresolved`` when either side's
spread between quartiles, as a share of its median, exceeds the bound, and
``worse`` when B's median is worse than A's by more than the bound.
Simulated metrics repeat exactly for a seed, so they are compared run for run
on the seeds both sides ran: ``identical`` or ``changed``.  Exits 1 if any
metric is worse or changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {metric: {seed: [values]}}} from every result file in *directory*."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        per_metric = runs.setdefault(doc["workload"], {})
        for name, metric in doc["metrics"].items():
            per_metric.setdefault(name, {}).setdefault(doc["seed"], []).append(metric["value"])
    return runs


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict_host(a: list, b: list, better: str, bound) -> tuple:
    """(change of B against A in the worse direction, verdict)."""
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    worse_by = ((mb - ma) if better == "lower" else (ma - mb)) / ma if ma else 0.0
    if bound is None:
        return worse_by, ""
    if spread(a) > bound or spread(b) > bound:
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def verdict_sim(a: dict, b: dict) -> str:
    """Compare simulated values run for run on the seeds both sides ran."""
    common = sorted(set(a) & set(b))
    if not common:
        return "no common seed"
    differ = [s for s in common if len(set(a[s] + b[s])) > 1]
    return f"changed on seeds {differ}" if differ else "identical"


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = load(dir_a), load(dir_b)

    def cell(values: list) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

    bad = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        print(f"== {workload}")
        print(f"  {'metric':34s} {'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} "
              f"{'worse by':>9s} {'bound':>6s}  verdict")
        for name in sorted(set(runs_a[workload]) & set(runs_b[workload])):
            by_seed_a, by_seed_b = runs_a[workload][name], runs_b[workload][name]
            a = [v for vs in by_seed_a.values() for v in vs]
            b = [v for vs in by_seed_b.values() for v in vs]
            # The bounded end-to-end metrics and host.* are host-measured;
            # every other metric is simulated.
            if name in bounds or name.startswith("host."):
                worse_by, verdict = verdict_host(a, b, better[name], bounds.get(name))
                change = f"{100 * worse_by:.2f}%"
            else:
                change, verdict = "-", verdict_sim(by_seed_a, by_seed_b)
            bad += verdict == "worse" or verdict.startswith("changed")
            bound = f"{bounds[name]:.2f}" if name in bounds else "-"
            print(f"  {name:34s} {cell(a):>38s} {cell(b):>38s} {change:>9s} {bound:>6s}  "
                  f"{verdict}".rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
