"""Integration: scenario runner replay determinism and the auto-shrinker.

The ISSUE's acceptance criteria live here: replaying one scenario twice
produces byte-identical (wall-clock-scrubbed) RunReport JSON, and
shrinking a seeded known-bad scenario yields a strictly smaller document
that reproduces the identical failure fingerprint.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ShrinkError, generate, run_scenario, shrink
from repro.scenarios.cli import fuzz_main

#: A differential scenario (small star cluster, no faults): the cheapest
#: full oracle path, and it carries a RunReport for the replay check.
PASSING_SEED = 1
#: Seeds a known-bad motif (reliability disarmed, hard loss): must fail.
KNOWN_BAD_SEED = 7
#: One master seed per oracle.
SEED_KINDS = {1: "differential", 3: "halo3d", 9: "kv", 18: "trace"}


def test_replay_twice_is_bit_identical():
    scenario = generate(PASSING_SEED)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.failed == second.failed
    assert first.fingerprint == second.fingerprint
    assert first.report_json() is not None
    assert first.report_json() == second.report_json()


@pytest.mark.parametrize("seed", sorted(SEED_KINDS))
def test_every_oracle_reports_the_shared_meta(seed):
    scenario = generate(seed)
    assert scenario.workload_kind == SEED_KINDS[seed]
    out = run_scenario(scenario)
    meta = out.report_dict()["meta"]
    assert meta["harness"] == "scenario-fuzz"
    assert meta["workload"] == scenario.workload_kind
    assert meta["scenario_id"] == scenario.scenario_id
    assert meta["scenario_seed"] == seed
    assert meta["fingerprint"] == out.fingerprint.describe()


@pytest.mark.parametrize("seed", sorted(SEED_KINDS))
def test_traced_replay_twice_is_bit_identical(seed):
    first = run_scenario(generate(seed), trace=True)
    second = run_scenario(generate(seed), trace=True)
    assert not first.failed
    assert first.report_json() == second.report_json()


def test_an_oracle_exception_fingerprints_as_its_type(monkeypatch):
    import repro.scenarios.runner as runner

    def refuse(*_args, **_kw):
        raise ValueError("cell refused")

    monkeypatch.setattr(runner, "run_kv_cell", refuse)
    out = run_scenario(generate(9))
    assert out.failed
    assert out.fingerprint.components == ("exception:ValueError",)
    assert out.details == {"error": "cell refused"}
    assert out.run_report is None


def test_seed_alone_reconstructs_the_same_run():
    # The generator is the only master-seed consumer: document-from-seed
    # equals document-from-file, so `fuzz replay <seed>` is exact.
    assert generate(PASSING_SEED) == generate(PASSING_SEED)
    out = run_scenario(generate(PASSING_SEED))
    assert not out.failed
    assert not out.fingerprint
    report = out.report_dict()
    assert report["meta"]["scenario_id"] == generate(PASSING_SEED).scenario_id
    assert report["metrics"]["scenario"]["scenario.runs"] == 1


def test_known_bad_scenario_fails_with_a_stable_fingerprint():
    scenario = generate(KNOWN_BAD_SEED, known_bad=True)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.failed and second.failed
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint.components  # non-empty, coarse components
    for component in first.fingerprint.components:
        prefix = component.split(":", 1)[0]
        assert prefix in ("exception", "invariant", "audit", "kv", "diff", "stall")


def test_shrink_minimizes_while_preserving_the_fingerprint():
    scenario = generate(KNOWN_BAD_SEED, known_bad=True)
    base = run_scenario(scenario)
    result = shrink(scenario, expect=base.fingerprint, max_attempts=80)
    assert result.reduced
    assert result.shrunk.size() < scenario.size()
    assert result.fingerprint == base.fingerprint
    # The minimized document still reproduces the identical failure.
    replay = run_scenario(result.shrunk)
    assert replay.failed
    assert replay.fingerprint == base.fingerprint
    # And it is a valid, self-contained document in its own right.
    result.shrunk.validate()


def test_shrink_refuses_a_passing_scenario():
    with pytest.raises(ShrinkError, match="passes"):
        shrink(generate(PASSING_SEED))


def test_fuzz_cli_replay_writes_deterministic_reports(tmp_path):
    scenario = generate(PASSING_SEED)
    path = scenario.save(str(tmp_path / "scenario.json"))
    rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
    assert fuzz_main(["replay", path, "--report-out", str(rep_a)]) == 0
    assert fuzz_main(["replay", path, "--report-out", str(rep_b)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()
    # Replaying from the bare seed hits the same document.
    assert fuzz_main(["replay", str(PASSING_SEED)]) == 0


def test_fuzz_cli_campaign_saves_and_shrinks_failures(tmp_path):
    fail_dir = tmp_path / "failures"
    report = tmp_path / "campaign.json"
    rc = fuzz_main(
        [
            "run",
            "--seed-start", str(KNOWN_BAD_SEED),
            "--count", "1",
            "--known-bad",
            "--shrink",
            "--fail-dir", str(fail_dir),
            "--report-out", str(report),
        ]
    )
    assert rc == 0  # --known-bad campaigns exercise failures by design
    saved = sorted(p.name for p in fail_dir.glob("*.json"))
    assert any(name.endswith("-shrunk.json") for name in saved)
    assert any(not name.endswith("-shrunk.json") for name in saved)
