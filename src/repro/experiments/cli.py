"""Command-line driver: regenerate any paper figure, ablation or sweep.

Usage::

    rvma-experiments fig4
    rvma-experiments fig7 --nodes 512
    rvma-experiments all --nodes 64 --out results.md
    rvma-experiments fig7 --paper-scale     # 8,192 nodes, slow
    rvma-experiments kv-churn --seed 2      # exits 1 if its verdict fails
    rvma-experiments services --ops 40      # one KV cell (also qos, active)
    rvma-experiments trace replay steady-mix --seed 2
    rvma-experiments fuzz run --seed-start 1 --count 20

This module holds the only argument parser.  Every :data:`REGISTRY`
entry is a subcommand that prints the regenerated table, its summary
and the paper's headline claims next to the measured ones.  The
single-cell KV commands, ``trace`` and ``fuzz`` add their own
subcommands from the modules that implement them.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from ..scenarios.cli import add_fuzz_command
from .active_flash import add_active_command, run_flash_sweep
from .ablations import (
    run_ablation_completion,
    run_ablation_lut,
    run_ablation_pcie,
    run_ablation_threshold,
    run_ablation_write_imm,
)
from .chaos import run_chaos, run_crash_restart
from .charts import chart_for_result
from .fault_recovery import run_fault_recovery
from .fig45 import run_fig4, run_fig5
from .fig6 import run_fig6
from .kv_churn import add_services_command, run_kv_churn
from .motif_sweep import run_fig7, run_fig8
from .qos_noisy import add_qos_command, run_noisy_sweep
from .report import ExperimentResult, save_run_report
from .trace_replay import add_trace_command

PAPER_NODES = 8192


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: its driver, the flags it takes, its verdict.

    ``takes`` names the driver keywords filled from the command line
    (see :func:`_driver_kwargs`).  ``verdict`` names the summary keys
    that must all be true; the command exits 1 when one is false.
    """

    run: Callable[..., ExperimentResult]
    takes: tuple = ()
    verdict: tuple = ()


_SWEEP = ("seeds", "observe", "trace")
_CHAOS = _SWEEP + ("motifs",)

REGISTRY: dict[str, Experiment] = {
    "fig4": Experiment(run_fig4),
    "fig5": Experiment(run_fig5),
    "fig6": Experiment(run_fig6),
    "fig7": Experiment(run_fig7, ("n_nodes", "jobs")),
    "fig8": Experiment(run_fig8, ("n_nodes", "jobs")),
    "ablation-lut": Experiment(run_ablation_lut),
    "ablation-completion": Experiment(run_ablation_completion),
    "ablation-threshold": Experiment(run_ablation_threshold),
    "ablation-write-imm": Experiment(run_ablation_write_imm),
    "ablation-pcie": Experiment(run_ablation_pcie),
    "fault-recovery": Experiment(run_fault_recovery),
    "chaos": Experiment(run_chaos, _CHAOS, ("all_invariants_ok",)),
    "chaos-crash": Experiment(run_crash_restart, _CHAOS, ("all_invariants_ok",)),
    "kv-churn": Experiment(run_kv_churn, _SWEEP, ("all_invariants_ok",)),
    "qos-noisy": Experiment(
        run_noisy_sweep, ("seeds",), ("all_invariants_ok", "qos_off_shows_violation")
    ),
    "active-flash": Experiment(
        run_flash_sweep, ("seeds",), ("all_invariants_ok", "contrast_ok", "chaos_ok")
    ),
}


def _driver_kwargs(args, takes: tuple) -> dict:
    """The keywords named by *takes*, read from the parsed flags."""
    kwargs = {}
    for name in takes:
        if name == "seeds" and args.seeds:
            kwargs[name] = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        elif name == "seeds":
            kwargs[name] = (args.seed,) if args.seed is not None else (1, 2, 3)
        elif name == "motifs":
            motifs = tuple(m.strip() for m in args.motifs.split(",") if m.strip())
            kwargs[name] = motifs or ("allreduce", "incast", "halo3d")
        elif name == "n_nodes":
            kwargs[name] = PAPER_NODES if args.paper_scale else args.nodes
        elif name == "observe":
            kwargs[name] = bool(args.metrics_out)
        else:
            kwargs[name] = getattr(args, name)
    return kwargs


def run_experiments(args) -> int:
    """Run one registry entry (or ``all``); print, write, and judge it."""
    names = sorted(REGISTRY) if args.command == "all" else [args.command]
    results: list[ExperimentResult] = []
    failed = False
    for name in names:
        entry = REGISTRY[name]
        t0 = time.time()
        result = entry.run(**_driver_kwargs(args, entry.takes))
        elapsed = time.time() - t0
        print(result.to_text())
        if args.chart:
            print()
            print(chart_for_result(result))
        for key, value in result.summary.items():
            claim = result.paper_claims.get(key)
            note = f"   (paper: {claim})" if claim is not None else ""
            print(f"  {key}: {value}{note}")
        for key, claim in result.paper_claims.items():
            if key not in result.summary:
                print(f"  paper {key}: {claim}")
        print(f"  [{name} regenerated in {elapsed:.1f}s]\n")
        results.append(result)
        failed = failed or not all(result.summary[key] for key in entry.verdict)

    if args.metrics_out:
        reports = [r.run_report for r in results if r.run_report is not None]
        if not reports:
            print(
                "--metrics-out: no observability report produced "
                "(only chaos, chaos-crash and kv-churn runs collect one)",
                file=sys.stderr,
            )
        else:
            from repro.observability import RunReport

            merged = reports[0] if len(reports) == 1 else RunReport.merge(reports)
            save_run_report(merged, args.metrics_out)
            print(f"observability report: {args.metrics_out} (markdown: {args.metrics_out}.md)")

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(result.to_markdown())
                fh.write("\n")
        print(f"appended {len(results)} result table(s) to {args.out}")
    return 1 if failed else 0


def _shared_flags() -> tuple:
    """The parent parsers: seed flags, report flags, run flags.

    Each shared flag is declared here once; a command takes the parents
    whose flags it reads.
    """
    seeds = argparse.ArgumentParser(add_help=False)
    seeds.add_argument(
        "--seed", type=int, default=None,
        help="pin a sweep to one seed (default: its 3-seed matrix; a single "
        "cell runs seed 1); lets CI shard seeds and failures replay exactly",
    )
    seeds.add_argument(
        "--seeds", type=str, default="",
        help="comma-separated seed list for a sweep (overrides --seed)",
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--metrics-out", type=str, default="",
        help="write the observability RunReport (JSON) to this path; a "
        "markdown rendering goes to <path>.md (chaos, chaos-crash, kv-churn "
        "and services collect one)",
    )
    report.add_argument(
        "--trace", action="store_true",
        help="enable span tracing during the run (adds span categories, "
        "hottest-span profiles to the --metrics-out report)",
    )
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--nodes", type=int, default=64,
        help="node count for the motif sweeps (paper used 8192)",
    )
    run.add_argument(
        "--paper-scale", action="store_true",
        help=f"run motif sweeps at the paper's {PAPER_NODES} nodes (slow)",
    )
    run.add_argument("--out", type=str, default="", help="append markdown to this file")
    run.add_argument("--chart", action="store_true", help="render a terminal bar chart per result")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the motif grids (each cell is an independent simulation)",
    )
    run.add_argument(
        "--motifs", type=str, default="",
        help="comma-separated motif subset for the chaos sweeps "
        "(default: allreduce,incast,halo3d)",
    )
    return seeds, report, run


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: registry entries, ``all`` and the tools."""
    parser = argparse.ArgumentParser(
        prog="rvma-experiments",
        description="Regenerate the RVMA paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    seeds, report, run = _shared_flags()
    for name, entry in REGISTRY.items():
        # The help line is the first sentence of the driver's docstring.
        doc = " ".join((entry.run.__doc__ or "").split())
        command = sub.add_parser(name, parents=[run, seeds, report], help=doc.split(".")[0])
        command.set_defaults(handler=run_experiments)
    command = sub.add_parser("all", parents=[run, seeds, report], help="every experiment above")
    command.set_defaults(handler=run_experiments)
    add_services_command(sub, [seeds, report])
    add_qos_command(sub, [seeds])
    add_active_command(sub, [seeds])
    add_trace_command(sub)
    add_fuzz_command(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse *argv* (default: ``sys.argv[1:]``) and run its command; the exit status."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
