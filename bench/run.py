"""The repository benchmark: paper motifs and KV-service workloads, timed from outside.

Run every workload in turn, each in its own fresh subprocess::

    python bench/run.py [--seed N] [--seconds S] [--trace]

or one workload in this process::

    python bench/run.py --workload halo3d-fig8 --seed 7 --seconds 15 --trace 0

A run repeats its workload for ``--seconds`` of host time after one warm-up
repeat, with at least ``min_repeats`` timed repeats.  It reports medians over
the timed repeats.  With ``--trace`` it then profiles one more repeat and
attributes its host time to the ``repro`` layers.  It prints every metric with
its unit, writes the whole result to ``--out`` and prints, as its last line,
one JSON object with the metrics that ``BENCHMARK.json`` lists: the
end-to-end ones untraced, the per-layer ones traced.  It exits non-zero if a
correctness check fails: a deadlocked motif, a broken KV invariant, or
simulated results that differ between repeats of one seed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Unit of every metric the benchmark computes; BENCHMARK.json must agree.
UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_us": "us",
    "speedup_x": "x",
    "p50_us": "us",
    "p99_us": "us",
    "max_rate_mops": "Mops/s",
    "fail_frac": "ratio",
    "host.trace_overhead_x": "x",
    "host.us_per_event": "us",
    "host.rvma_leg_s": "s",
    "host.rdma_leg_s": "s",
    "sim.events": "count",
    "sim.events_per_msg": "events/msg",
    "fabric.messages_sent": "msgs",
    "fabric.packets_forwarded": "packets",
    "fabric.msg_latency_us": "us",
    "nic.rvma.epochs_completed": "epochs",
    "nic.rvma.tx_messages": "msgs",
    "nic.rvma.put_retries": "ops",
    "nic.put_goodput": "ratio",
    "nic.rvma.active.served": "ops",
    "transport.tx": "msgs",
    "transport.acks_tx": "msgs",
    "transport.retransmits": "msgs",
    "transport.rx_paced": "msgs",
    "service.kv.shard_queue_depth.mean": "requests",
    "service.kv.reply_batch.mean": "replies",
    "service.kv.flushes": "epochs",
    "workload.trace.replay_lag_us.mean": "us",
    "workload.trace.replay_lag_us.max": "us",
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))


def units() -> dict:
    from attribution import LAYERS

    out = dict(UNITS)
    for layer in LAYERS:
        out[f"host.{layer}.self_s"] = "s"
        out[f"host.{layer}.share"] = "%"
        out[f"host.{layer}.calls_in"] = "count"
    return out


def profiled(fn, seed: int, size: dict):
    """One repeat under cProfile: (Repeat, pstats.Stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rep = fn(seed, size)
    finally:
        profiler.disable()
    return rep, pstats.Stats(profiler)


def measure(name: str, seed: int, seconds: float, trace: bool, config: dict):
    """Run one workload: (result document, pstats.Stats of the traced repeat or None)."""
    from attribution import attribute
    from workloads import KINDS

    spec = config["workloads"][name]
    fn, size = KINDS[spec["kind"]], spec["size"]
    # The first repeat in a process fills the simulator's memoized timing
    # models and the interpreter's caches; it is checked but not timed.
    warm = fn(seed, size)
    timed = []
    start = time.perf_counter()
    while True:
        timed.append(fn(seed, size))
        spent = time.perf_counter() - start
        if len(timed) >= config["min_repeats"] and spent + spent / len(timed) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, stats = profiled(fn, seed, size) if trace else (None, None)

    reps = [warm] + timed + ([traced] if traced else [])
    errors = [f"repeat {i}: {e}" for i, rep in enumerate(reps) for e in rep.errors]
    ref = warm
    errors += [
        f"repeat {i}: simulated results differ from repeat 0 (nondeterministic simulator)"
        for i, rep in enumerate(reps) if rep.fingerprint() != ref.fingerprint()
    ]

    median = statistics.median
    metrics = {
        "run_s": median([r.run_s for r in timed]),
        "setup_s": median([r.setup_s for r in timed]),
        "peak_rss_mb": peak_rss_mb,
        **ref.results,
        "fail_frac": ref.failed / ref.attempted if ref.attempted else 0.0,
        "host.rvma_leg_s": median([r.leg_s.get("rvma", 0.0) for r in timed]),
        "host.rdma_leg_s": median([r.leg_s.get("rdma", 0.0) for r in timed]),
        **ref.layers,
    }
    metrics["host.us_per_event"] = 1e6 * metrics["run_s"] / ref.layers["sim.events"]
    if traced is not None:
        metrics["host.trace_overhead_x"] = traced.run_s / metrics["run_s"]
        metrics.update(attribute(stats))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "repeats": {
            "timed": len(timed),
            "run_s": [r.run_s for r in timed],
            "setup_s": [r.setup_s for r in timed],
        },
        "identity": ref.identity,
        "correct": not errors,
        "errors": errors,
        "attempted": sum(r.attempted for r in timed),
        "failed": sum(r.failed for r in timed),
        "metrics": metrics,
    }, stats


def report(doc: dict, stats, spec: dict, out_dir: Path) -> dict:
    """Print every metric, save the document and *stats*; returns the final line's object."""
    table = units()
    listed = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    for entry in listed:
        if table.get(entry["name"]) != entry["unit"]:
            raise SystemExit(
                f"bench: BENCHMARK.json gives {entry['name']} unit {entry['unit']!r}, "
                f"the benchmark measures {table.get(entry['name'])!r}"
            )
    metrics = doc["metrics"]
    print(f"{doc['workload']} seed={doc['seed']}: {doc['repeats']['timed']} timed repeats")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f} {table[name]}")
    for error in doc["errors"]:
        print(f"  FAILED: {error}")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{doc['workload']}.seed{doc['seed']}.trace{doc['trace']}.{time.time_ns()}"
    if stats is not None:
        stats.dump_stats(str(out_dir / f"{stem}.pstats"))
    with_units = {name: {"value": v, "unit": table[name]} for name, v in metrics.items()}
    saved = dict(doc, metrics=with_units)
    (out_dir / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {e["name"]: with_units[e["name"]] for e in listed},
    }


def run_all(args, names: list) -> int:
    """Every workload in turn, each in a fresh subprocess; non-zero if any fails."""
    bad = []
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            bad.append(name)
    print(f"== {len(names) - len(bad)}/{len(names)} workloads correct"
          + (f"; failed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    use_checkout_src()
    spec = load_json(ROOT / "BENCHMARK.json")
    config = load_json(BENCH / "config.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(config["workloads"]),
                        help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=config["seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host time spent on timed repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also profile one repeat and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=BENCH / "results",
                        help="directory for the per-run result files")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, [w["name"] for w in spec["workloads"]])
    doc, stats = measure(args.workload, args.seed, args.seconds, bool(args.trace), config)
    result = report(doc, stats, spec, args.out)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
