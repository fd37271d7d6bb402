"""Seeded scenario fuzzing: generate → run → shrink → pin.

The robustness subsystem the ROADMAP's "as many scenarios as you can
imagine" item asks for.  One master seed samples a fully pinned,
schema-versioned scenario document (:mod:`.generator` / :mod:`.schema`);
the runner replays any document bit-identically through the existing
oracles — chaos invariants, the invariant auditor, KV linearizability,
differential backend parity (:mod:`.runner`); failing scenarios
greedily minimize while preserving their failure fingerprint
(:mod:`.shrink`); and shrunk survivors pin into a replayed regression
corpus (:mod:`.corpus`).  ``rvma-experiments fuzz`` is the front end
(:mod:`.cli`).
"""

from ..observability import scrub_report
from .corpus import (
    CORPUS_DIR,
    CorpusEntry,
    ReplayVerdict,
    list_entries,
    load_entry,
    replay_corpus,
    replay_entry,
    save_entry,
)
from .generator import generate, generate_many, regenerate
from .runner import FailureFingerprint, ScenarioOutcome, run_scenario
from .schema import (
    BACKENDS,
    MOTIF_KINDS,
    SCHEMA_VERSION,
    WORKLOAD_KINDS,
    Scenario,
    ScenarioError,
)
from .shrink import ShrinkError, ShrinkResult, shrink

__all__ = [
    "BACKENDS",
    "CORPUS_DIR",
    "CorpusEntry",
    "FailureFingerprint",
    "MOTIF_KINDS",
    "ReplayVerdict",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "ScenarioOutcome",
    "ShrinkError",
    "ShrinkResult",
    "WORKLOAD_KINDS",
    "generate",
    "generate_many",
    "list_entries",
    "load_entry",
    "regenerate",
    "replay_corpus",
    "replay_entry",
    "run_scenario",
    "save_entry",
    "scrub_report",
    "shrink",
]
