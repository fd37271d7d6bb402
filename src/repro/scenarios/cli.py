"""``rvma-experiments fuzz``: campaigns, replay, shrink, corpus.

Four subcommands::

    fuzz run --seed-start 1 --count 20 [--time-budget-s 300] [--shrink]
    fuzz replay <scenario.json | seed> [--report-out rep.json]
    fuzz shrink <scenario.json | seed> [--known-bad] [--out small.json]
    fuzz corpus [--dir corpus/] [--add failing.json --note "..."]

``run`` samples scenarios from consecutive master seeds and executes
each one; failures are written (and optionally
auto-shrunk) into ``--fail-dir`` as replayable scenario documents, and
the campaign's merged observability RunReport lands at ``--report-out``.

``replay`` accepts either a scenario file or a bare master seed — the
generator is deterministic, so the seed alone reconstructs the document
bit-for-bit.  Replay reports are wall-clock-scrubbed: replaying the
same scenario twice produces byte-identical JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..observability import RunReport, scrub_report
from .corpus import CORPUS_DIR, list_entries, replay_entry, save_entry
from .generator import generate
from .runner import ScenarioOutcome, run_scenario
from .schema import Scenario
from .shrink import ShrinkError, shrink


def _load_scenario(ref: str, known_bad: bool = False) -> Scenario:
    """A scenario from a document path, or from a bare master seed."""
    path = Path(ref)
    if path.exists():
        return Scenario.load(str(path))
    try:
        seed = int(ref)
    except ValueError:
        raise SystemExit(f"fuzz: {ref!r} is neither a scenario file nor a seed")
    return generate(seed, known_bad=known_bad)


def _save_report(outcomes: list, path: str, meta: dict, shrink_stats=None) -> None:
    reports = [o.run_report for o in outcomes if o.run_report is not None]
    if not reports:
        return
    merged = RunReport.merge(reports, meta=meta)
    doc = scrub_report(merged.to_dict())
    if shrink_stats is not None:
        # Shrinking happens outside any one simulator, so its counters
        # are folded into the campaign rollup rather than a cluster's.
        group = doc.setdefault("metrics", {}).setdefault("scenario", {})
        group["scenario.shrink_attempts"] = shrink_stats[0]
        group["scenario.shrink_accepted"] = shrink_stats[1]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[fuzz] campaign report: {path}")


def _cmd_run(args) -> int:
    t0 = time.monotonic()
    outcomes: list[ScenarioOutcome] = []
    failures: list[ScenarioOutcome] = []
    shrink_attempts = shrink_accepted = 0
    fail_dir = Path(args.fail_dir) if args.fail_dir else None
    seed = args.seed_start
    last = args.seed_start + args.count - 1
    while seed <= last:
        if args.time_budget_s and time.monotonic() - t0 > args.time_budget_s:
            print(
                f"[fuzz] time budget {args.time_budget_s}s exhausted after "
                f"{len(outcomes)} scenario(s); stopping at seed {seed}"
            )
            break
        scenario = generate(seed, known_bad=args.known_bad)
        out = run_scenario(scenario, trace=args.trace)
        outcomes.append(out)
        marker = "FAIL" if out.failed else "ok"
        print(f"[fuzz] seed {seed}: {marker:4s} {scenario.describe()}")
        if out.failed:
            print(f"[fuzz]   fingerprint {out.fingerprint.describe()}")
            failures.append(out)
            if fail_dir is not None:
                fail_dir.mkdir(parents=True, exist_ok=True)
                raw = fail_dir / f"seed{seed}-{scenario.scenario_id}.json"
                scenario.save(str(raw))
                print(f"[fuzz]   saved {raw}")
                if args.shrink:
                    try:
                        res = shrink(scenario, expect=out.fingerprint)
                    except ShrinkError as exc:
                        print(f"[fuzz]   shrink skipped: {exc}")
                    else:
                        shrink_attempts += res.attempts
                        shrink_accepted += res.accepted
                        small = fail_dir / (
                            f"seed{seed}-{res.shrunk.scenario_id}-shrunk.json"
                        )
                        res.shrunk.save(str(small))
                        print(f"[fuzz]   {res.describe()}")
                        print(f"[fuzz]   saved {small}")
        seed += 1
    print(
        f"[fuzz] campaign: {len(outcomes)} scenario(s), "
        f"{len(failures)} failure(s), {time.monotonic() - t0:.1f}s"
    )
    if args.report_out:
        _save_report(
            outcomes,
            args.report_out,
            meta={
                "harness": "scenario-fuzz",
                "seed_start": args.seed_start,
                "scenarios": len(outcomes),
                "failures": len(failures),
                "known_bad": args.known_bad,
            },
            shrink_stats=(shrink_attempts, shrink_accepted) if args.shrink else None,
        )
    if args.known_bad:
        return 0  # failures are the point; the campaign exercised them
    return 1 if failures else 0


def _cmd_replay(args) -> int:
    scenario = _load_scenario(args.scenario, known_bad=args.known_bad)
    out = run_scenario(scenario, trace=args.trace)
    print(f"[fuzz] {out.describe()}")
    for key, value in sorted(out.details.items()):
        print(f"[fuzz]   {key}: {value}")
    if args.report_out:
        text = out.report_json()
        if text is not None:
            report_path = Path(args.report_out)
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(text, encoding="utf-8")
            print(f"[fuzz] replay report: {args.report_out}")
    if args.expect_fail:
        return 0 if out.failed else 2
    return 2 if out.failed else 0


def _cmd_shrink(args) -> int:
    scenario = _load_scenario(args.scenario, known_bad=args.known_bad)
    try:
        res = shrink(scenario, max_attempts=args.max_attempts, verbose=args.verbose)
    except ShrinkError as exc:
        print(f"[fuzz] {exc}")
        return 2
    print(f"[fuzz] {res.describe()}")
    for step in res.trail:
        print(f"[fuzz]   - {step}")
    if args.out:
        res.shrunk.save(args.out)
        print(f"[fuzz] shrunk scenario: {args.out}")
    return 0


def _cmd_corpus(args) -> int:
    corpus_dir = Path(args.dir) if args.dir else CORPUS_DIR
    if args.add:
        entry_scenario = Scenario.load(args.add)
        out = run_scenario(entry_scenario)
        scenario = entry_scenario
        if out.failed and args.shrink:
            res = shrink(scenario, expect=out.fingerprint)
            scenario = res.shrunk
            print(f"[fuzz] {res.describe()}")
        path = save_entry(scenario, out.fingerprint, note=args.note, corpus_dir=corpus_dir)
        print(f"[fuzz] pinned {path} (expect {out.fingerprint.describe()})")
        return 0
    entries = list_entries(corpus_dir)
    if not entries:
        print(f"[fuzz] corpus {corpus_dir}: empty")
        return 0
    bad = 0
    for entry in entries:
        verdict = replay_entry(entry)
        print(f"[fuzz] {verdict.describe()}")
        if not verdict.ok:
            bad += 1
    print(f"[fuzz] corpus {corpus_dir}: {len(entries)} entries, {bad} diverged")
    return 1 if bad else 0


def add_fuzz_command(sub) -> None:
    """Add ``rvma-experiments fuzz`` and its four subcommands."""
    parser = sub.add_parser(
        "fuzz", help="seeded scenario fuzzer: campaigns, replay, shrink, corpus",
        description="Seeded scenario fuzzer: campaigns, replay, shrink, corpus",
    )
    cmds = parser.add_subparsers(dest="fuzz_command", required=True)

    p_run = cmds.add_parser("run", help="run a fuzz campaign over a seed range")
    p_run.add_argument("--seed-start", type=int, default=1)
    p_run.add_argument("--count", type=int, default=10)
    p_run.add_argument(
        "--time-budget-s", type=float, default=0.0,
        help="stop sampling when the budget is exhausted (0 = no budget)",
    )
    p_run.add_argument(
        "--known-bad", action="store_true",
        help="sample deliberately failing scenarios (reliability disarmed)",
    )
    p_run.add_argument(
        "--shrink", action="store_true",
        help="auto-shrink every failure before saving it",
    )
    p_run.add_argument(
        "--fail-dir", type=str, default="",
        help="write failing (and shrunk) scenario documents here",
    )
    p_run.add_argument(
        "--report-out", type=str, default="",
        help="write the campaign's merged observability report (JSON) here",
    )
    p_run.add_argument("--trace", action="store_true", help="enable span tracing")
    p_run.set_defaults(handler=_cmd_run)

    p_replay = cmds.add_parser(
        "replay", help="replay one scenario from its file or master seed"
    )
    p_replay.add_argument("scenario", help="scenario JSON path, or a master seed")
    p_replay.add_argument("--known-bad", action="store_true")
    p_replay.add_argument(
        "--report-out", type=str, default="",
        help="write the deterministic (wall-scrubbed) replay report here",
    )
    p_replay.add_argument(
        "--expect-fail", action="store_true",
        help="exit 0 when the scenario fails (regression-pin mode)",
    )
    p_replay.add_argument("--trace", action="store_true")
    p_replay.set_defaults(handler=_cmd_replay)

    p_shrink = cmds.add_parser("shrink", help="minimize a failing scenario")
    p_shrink.add_argument("scenario", help="scenario JSON path, or a master seed")
    p_shrink.add_argument("--known-bad", action="store_true")
    p_shrink.add_argument("--out", type=str, default="", help="write the shrunk document here")
    p_shrink.add_argument("--max-attempts", type=int, default=200)
    p_shrink.add_argument("--verbose", action="store_true")
    p_shrink.set_defaults(handler=_cmd_shrink)

    p_corpus = cmds.add_parser(
        "corpus", help="replay the pinned corpus (or --add a new entry)"
    )
    p_corpus.add_argument("--dir", type=str, default="", help="corpus directory")
    p_corpus.add_argument("--add", type=str, default="", help="scenario JSON to pin")
    p_corpus.add_argument("--note", type=str, default="", help="provenance note for --add")
    p_corpus.add_argument(
        "--shrink", action="store_true", help="shrink a failing entry before pinning"
    )
    p_corpus.set_defaults(handler=_cmd_corpus)
