"""tools/ab_pairs.py's claim verdict applies the nine-in-ten and quartile-spread rule."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _ab_pairs():
    path = ROOT / "tools" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten parent runs: median 1.05, quartiles 1.0175 and 1.0825 (spread 0.065).
PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.01, 1.03, 1.07, 1.09]


def test_claim_met_on_nine_wins_and_a_gap_past_the_spread():
    verdict = _ab_pairs().claim_verdict
    change = [x - 0.2 for x in PARENT]
    change[3] = PARENT[3] + 0.01  # one lost pair of ten
    assert verdict(PARENT, change, "lower").startswith("claim met: B won 9 of 10")


def test_eight_wins_do_not_make_a_claim():
    verdict = _ab_pairs().claim_verdict
    change = [x - 0.2 for x in PARENT]
    change[0] = change[1] = 2.0
    assert verdict(PARENT, change, "lower").startswith("claim not met: B won 8 of 10")


def test_ties_count_for_neither_side():
    verdict = _ab_pairs().claim_verdict
    change = [x - 0.2 for x in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    assert "B won 8 of 10" in verdict(PARENT, change, "lower")


def test_every_pair_won_by_less_than_the_spread_is_not_a_claim():
    verdict = _ab_pairs().claim_verdict
    change = [x - 0.05 for x in PARENT]  # gap 0.05 < spread 0.065
    assert verdict(PARENT, change, "lower").startswith("claim not met: median gap")


def test_higher_is_better_metrics_win_upwards():
    verdict = _ab_pairs().claim_verdict
    assert verdict(PARENT, [x + 0.2 for x in PARENT], "higher").startswith("claim met")
    assert verdict(PARENT, [x - 0.2 for x in PARENT], "higher").startswith("claim not met")
