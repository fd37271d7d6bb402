"""Where a benchmark workload's memory sits at its traced peak.

Runs one warm repeat of a ``bench/`` workload untraced, then one repeat
under ``tracemalloc``, and prints the traced peak and the top allocation
sites (file and line) of a snapshot taken at that peak::

    python tools/mem_sites.py --workload halo3d-fig8 [--top N] [--rvma-only]
                              [--param KEY=VALUE ...]

``--param iterations=10`` sets one entry of the workload's ``params``
(the motif's own parameters) and keeps the others; it may be repeated.
A VALUE is read as JSON where it parses (``10``, ``1e3``, ``true``) and
as a string otherwise.

Next to the traced peak it prints the import floor: the process's
``ru_maxrss`` once the workload's imports are done and before the warm
repeat, in the MB of the bench's ``peak_rss_mb``.  The warm repeat fills
the simulator's memoized timing models, so the traced repeat sees only
what a repeat allocates.  The snapshot is taken from inside the run:
every ``Simulator.post`` and ``Simulator.wake`` reads the traced total,
and a new snapshot replaces the last one each time that total passes
the last snapshot's by ``STEP``.  The run uses the bench seed and is
deterministic, so one tree and workload give the same table in every
fresh process.  The snapshot lies within ``STEP`` of the highest total
seen at those calls, and its share of the traced peak is printed with
it.  For a motif workload each leg's own traced peak is printed too,
with the leg the snapshot fell in.  A dataclass's generated
``__init__`` is charged to the line that called it.
``bench/workloads.py`` and ``bench/config.json`` are only read.
"""

from __future__ import annotations

import argparse
import json
import linecache
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

#: A new snapshot is taken once the traced total exceeds the last one's by this share.
STEP = 0.02
#: No snapshot below this many traced bytes (the run's first steps).
FLOOR = 1 << 16
#: Frames kept per allocation: the site, and its caller for generated code.
FRAMES = 2


class PeakSnapshot:
    """Keeps the snapshot taken at the highest traced total seen so far."""

    def __init__(self) -> None:
        self.snapshot = None
        self.at_bytes = 0
        self.taken = 0
        self._next = FLOOR
        #: the motif leg running now, and the one the snapshot was taken in
        self.leg = None
        self.snapshot_leg = None

    def check(self) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current >= self._next:
            self.snapshot = None  # release the old one before taking the next
            self.snapshot = tracemalloc.take_snapshot()
            self.at_bytes = current
            self.snapshot_leg = self.leg
            self.taken += 1
            self._next = current * (1.0 + STEP)


class LegPeaks:
    """Stands in for ``workloads._motif_leg`` and records each leg's traced peak.

    The traced peak is reset as a leg starts; :attr:`outside` keeps the
    highest total traced outside every leg.
    """

    def __init__(self, leg, watcher: PeakSnapshot) -> None:
        self.leg = leg
        self.watcher = watcher
        self.peaks: dict[str, int] = {}
        self.outside = 0

    def __call__(self, size: dict, nic_type: str, seed: int):
        self.outside = max(self.outside, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self.watcher.leg = nic_type
        try:
            return self.leg(size, nic_type, seed)
        finally:
            self.watcher.leg = None
            self.peaks[nic_type] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()


def _watched(method, watcher: PeakSnapshot):
    def watched(sim, *args):
        watcher.check()
        return method(sim, *args)

    return watched


def trace_repeat(fn, seed: int, size: dict,
                 workloads=None) -> tuple[int, PeakSnapshot, dict[str, int]]:
    """One repeat of *fn* under tracemalloc.

    Returns (traced peak bytes, its snapshot, each leg's traced peak).
    Legs are told apart only when *workloads*, the bench module whose
    ``_motif_leg`` *fn* calls, is given; otherwise the last is empty.
    """
    from repro.sim.engine import Simulator

    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is already tracing in this process")
    watcher = PeakSnapshot()
    legs = LegPeaks(workloads._motif_leg, watcher) if workloads is not None else None
    saved = Simulator.post, Simulator.wake
    Simulator.post = _watched(saved[0], watcher)
    Simulator.wake = _watched(saved[1], watcher)
    if legs is not None:
        workloads._motif_leg = legs
    tracemalloc.start(FRAMES)
    try:
        fn(seed, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Simulator.post, Simulator.wake = saved
        if legs is not None:
            workloads._motif_leg = legs.leg
    if legs is None:
        return peak, watcher, {}
    return max(peak, legs.outside, *legs.peaks.values()), watcher, legs.peaks


def _site(traceback) -> tuple[str, int]:
    """The innermost frame outside generated code, as (file, line).

    A dataclass's ``__init__`` is compiled from a string, so what its
    default factories allocate is charged to the line that built it.
    """
    for frame in reversed(traceback):
        if not frame.filename.startswith("<"):
            return frame.filename, frame.lineno
    return traceback[-1].filename, traceback[-1].lineno


def top_sites(snapshot, top: int) -> list[dict]:
    """The *top* largest allocation sites of *snapshot*, largest first."""
    sites: dict[tuple[str, int], list[int]] = {}
    for stat in snapshot.statistics("traceback"):
        total = sites.setdefault(_site(stat.traceback), [0, 0])
        total[0] += stat.size
        total[1] += stat.count
    rows = []
    for (filename, lineno), (size, count) in sorted(sites.items(), key=lambda kv: -kv[1][0])[:top]:
        path = Path(filename)
        try:
            path = path.resolve().relative_to(ROOT)
        except ValueError:
            pass
        rows.append({
            "site": f"{path.as_posix()}:{lineno}",
            "bytes": size,
            "count": count,
            "code": linecache.getline(filename, lineno).strip(),
        })
    return rows


def parse_params(pairs: list[str]) -> dict:
    """``["KEY=VALUE", ...]`` as a dict, each VALUE read as JSON if it parses."""
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def workload_size(base: dict, size: dict | None = None, params: dict | None = None,
                  rvma_only: bool = False) -> dict:
    """The size a run uses: *base* (a ``bench/config.json`` size) with
    *size*'s fields replacing its own, *params* merged into its
    ``params`` entry, and only the RVMA leg when *rvma_only*."""
    out = dict(base, **(size or {}))
    if params:
        out["params"] = dict(out.get("params", {}), **params)
    if rvma_only:
        out["legs"] = ["rvma"]
    return out


def measure(name: str, size: dict | None = None, rvma_only: bool = False,
            top: int = 20, params: dict | None = None) -> dict:
    """Warm repeat, then traced repeat of workload *name* at the bench seed.

    Returns the report as a dict.  *size* overrides fields of the
    workload's ``bench/config.json`` size, *params* entries of its
    ``params``; *rvma_only* drops a motif workload's RDMA leg.
    """
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    config = json.loads((BENCH / "config.json").read_text(encoding="utf-8"))
    spec = config["workloads"][name]
    seed = config["seed"]
    size = workload_size(spec["size"], size, params, rvma_only)
    fn = workloads.KINDS[spec["kind"]]
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fn(seed, size)
    peak, watcher, leg_peaks = trace_repeat(
        fn, seed, size, workloads if spec["kind"] == "motif" else None
    )
    if watcher.snapshot is None:
        raise RuntimeError(f"{name}: the traced total never reached {FLOOR} bytes")
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "peak_bytes": peak,
        "import_floor_mb": floor_mb,
        "snapshot_bytes": watcher.at_bytes,
        "snapshots": watcher.taken,
        "leg_peaks": leg_peaks,
        "snapshot_leg": watcher.snapshot_leg,
        "sites": top_sites(watcher.snapshot, top),
    }


def render(report: dict) -> str:
    mb = 1024.0 * 1024.0
    peak, at = report["peak_bytes"], report["snapshot_bytes"]
    lines = [
        f"{report['workload']} seed={report['seed']}: traced peak {peak / mb:.2f} MB, "
        f"import floor {report['import_floor_mb']:.2f} MB (ru_maxrss); "
        f"snapshot at {at / mb:.2f} MB ({100.0 * at / peak:.1f} % of peak, "
        f"{report['snapshots']} taken)",
    ]
    if report["leg_peaks"]:
        lines.append(
            "leg peaks: "
            + ", ".join(f"{leg} {b / mb:.2f} MB" for leg, b in report["leg_peaks"].items())
            + f"; snapshot in the {report['snapshot_leg']} leg"
        )
    lines.append(f"{'MB':>7} {'count':>8} {'avg B':>6}  site")
    for row in report["sites"]:
        avg = row["bytes"] / row["count"] if row["count"] else 0.0
        lines.append(
            f"{row['bytes'] / mb:7.2f} {row['count']:8d} {avg:6.0f}  {row['site']}  {row['code']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of bench/config.json")
    parser.add_argument("--top", type=int, default=20, help="allocation sites to print")
    parser.add_argument("--rvma-only", action="store_true",
                        help="motif workloads: run the RVMA leg only")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="set one entry of the workload's params (repeatable)")
    args = parser.parse_args(argv)
    try:
        params = parse_params(args.param)
    except ValueError as exc:
        parser.error(str(exc))
    report = measure(args.workload, rvma_only=args.rvma_only, top=args.top, params=params)
    print(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
