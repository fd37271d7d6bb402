"""Integration: the checked-in scenario corpus is a live regression gate.

Every entry under ``corpus/`` replays with exactly its recorded
expectation — pinned passes must pass, pinned failures must fail with
the identical fingerprint.  Divergence means a behaviour change the
fuzzer once caught has resurfaced (or a pinned pass broke).
"""

from __future__ import annotations

import json

from repro.experiments.cli import main
from repro.scenarios import (
    CORPUS_DIR,
    FailureFingerprint,
    generate,
    list_entries,
    load_entry,
    replay_corpus,
    run_scenario,
    save_entry,
)


def test_checked_in_corpus_replays_exactly():
    entries = list_entries()
    assert entries, f"corpus at {CORPUS_DIR} should not be empty"
    verdicts = replay_corpus()
    diverged = [v.describe() for v in verdicts if not v.ok]
    assert not diverged, "corpus divergence:\n" + "\n".join(diverged)
    # The corpus pins both shapes: at least one failure reproduction and
    # at least one known-good scenario held at "pass".
    assert any(e.expected for e in entries)
    assert any(not e.expected for e in entries)


def test_corpus_entries_are_plain_replayable_scenarios():
    # The x_* expectation keys are advisory: every entry is loadable by
    # the plain schema loader, so `fuzz replay <entry>` works directly.
    from repro.scenarios import Scenario

    for entry in list_entries():
        assert Scenario.load(str(entry.path)) == entry.scenario


def test_engine_field_is_accepted_and_ignored():
    """Documents pinned to ``"engine": "plain"`` still replay: the runner
    ignores the field, so the same document under ``"fast"`` yields the
    same fingerprint and a byte-identical scrubbed RunReport, apart from
    the scenario id the report quotes (a digest of the document)."""
    entry = load_entry(CORPUS_DIR / "e43ee3cc90b5.json")
    assert entry.scenario.engine == "plain"
    as_fast = entry.scenario.with_changes(engine="fast")
    plain = run_scenario(entry.scenario)
    fast = run_scenario(as_fast)
    assert plain.fingerprint == fast.fingerprint == entry.expected
    plain_doc, fast_doc = plain.report_dict(), fast.report_dict()
    assert plain_doc["meta"].pop("scenario_id") == entry.scenario.scenario_id
    assert fast_doc["meta"].pop("scenario_id") == as_fast.scenario_id
    assert json.dumps(plain_doc, sort_keys=True) == json.dumps(fast_doc, sort_keys=True)


def test_save_and_load_entry_round_trip(tmp_path):
    scenario = generate(5)
    fp = FailureFingerprint.collect(["invariant:gave_up"])
    path = save_entry(scenario, fp, note="unit round-trip", corpus_dir=tmp_path)
    assert path.name == f"{scenario.scenario_id}.json"
    entry = load_entry(path)
    assert entry.scenario == scenario
    assert entry.expected == fp
    assert entry.note == "unit round-trip"


def test_fuzz_cli_corpus_replay_passes():
    assert main(["fuzz", "corpus"]) == 0
