"""The scenario corpus: shrunk survivors pinned as regressions.

Every corpus entry is a plain scenario document (loadable by
``Scenario.load`` / ``fuzz replay``) with two extra keys the schema
loader ignores:

* ``x_fingerprint`` — the failure-fingerprint components the entry is
  expected to reproduce (``[]`` for pinned *passing* scenarios);
* ``x_note`` — one line of provenance (what campaign minted it, why it
  is pinned).

``replay_corpus`` re-runs every entry and demands the outcome match the
recorded expectation exactly: a pinned-pass entry must pass, a
pinned-failure entry must fail with the identical fingerprint.  The
test suite folds this in (``tests/integration/test_scenario_corpus.py``),
so the corpus is a live regression gate, not a graveyard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .runner import FailureFingerprint, ScenarioOutcome, run_scenario
from .schema import Scenario, ScenarioError

#: Repo-level corpus directory (checked in; see docs/FUZZING.md).
CORPUS_DIR = Path(__file__).resolve().parents[3] / "corpus"


@dataclass
class CorpusEntry:
    """One pinned scenario with its expected outcome."""

    path: Path
    scenario: Scenario
    expected: FailureFingerprint
    note: str = ""


@dataclass
class ReplayVerdict:
    """Replaying one corpus entry against its recorded expectation."""

    entry: CorpusEntry
    outcome: ScenarioOutcome
    ok: bool

    def describe(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        return (
            f"{self.entry.path.name}: {status} "
            f"(expected {self.entry.expected.describe()}, "
            f"got {self.outcome.fingerprint.describe()})"
        )


def save_entry(
    scenario: Scenario,
    fingerprint: FailureFingerprint,
    note: str = "",
    corpus_dir: Optional[Path] = None,
) -> Path:
    """Pin *scenario* into the corpus, named by its scenario id."""
    corpus_dir = Path(corpus_dir or CORPUS_DIR)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    doc = scenario.to_dict()
    doc["x_fingerprint"] = list(fingerprint.components)
    doc["x_note"] = note
    path = corpus_dir / f"{scenario.scenario_id}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def load_entry(path) -> CorpusEntry:
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: corpus entry must be a JSON object")
    scenario = Scenario.from_dict(doc)
    expected = FailureFingerprint.collect(doc.get("x_fingerprint", ()))
    return CorpusEntry(
        path=path, scenario=scenario, expected=expected,
        note=str(doc.get("x_note", "")),
    )


def list_entries(corpus_dir: Optional[Path] = None) -> list:
    corpus_dir = Path(corpus_dir or CORPUS_DIR)
    if not corpus_dir.is_dir():
        return []
    return [load_entry(p) for p in sorted(corpus_dir.glob("*.json"))]


def replay_entry(entry: CorpusEntry) -> ReplayVerdict:
    outcome = run_scenario(entry.scenario)
    return ReplayVerdict(
        entry=entry, outcome=outcome, ok=outcome.fingerprint == entry.expected
    )


def replay_corpus() -> list:
    """Replay every committed corpus entry; returns one verdict per entry."""
    return [replay_entry(e) for e in list_entries()]
