"""Alternate benchmark runs between a git ref and the working tree.

    python tools/ab_pairs.py --ref HEAD --workload sweep3d-fig7 --pairs 10

Checks *ref* out into a temporary ``git worktree``, then runs
``bench/run.py --workload W`` N times in each tree, alternating A (the
ref) and B (the working tree) and swapping which goes first every pair,
so slow drift of the host lands on both sides.  Seed and run time are
``bench/run.py``'s defaults.  It prints every ``end_to_end`` metric of
``BENCHMARK.json`` pair by pair with B/A, counts the pairs in which B is
better on each and gives each metric a claim verdict (:func:`claim_verdict`),
then runs ``bench/compare.py A B`` on the result files and exits with that
script's status.  The worktree and result files are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(tree: Path, workload: str, out: Path) -> dict:
    """One untraced ``bench/run.py`` run in *tree*; returns its end-to-end
    metric values by name."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def claim_verdict(a: list, b: list, better: str) -> str:
    """Whether pairs ``(a[i], b[i])`` back a claim that B beats A on one metric.

    The claim holds when B wins at least nine tenths of the pairs (ties
    count for neither) and B's median is better than A's by more than
    the distance between A's quartiles.  *better* is ``"lower"`` or
    ``"higher"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    q1, median_a, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
    gap = sign * (statistics.median(b) - median_a)
    iqr = q3 - q1
    if 10 * wins < 9 * len(a):
        return f"claim not met: B won {wins} of {len(a)} pairs, fewer than nine tenths"
    if gap <= iqr:
        return f"claim not met: median gap {gap:.4g} is not above A's quartile spread {iqr:.4g}"
    return (f"claim met: B won {wins} of {len(a)} pairs, "
            f"median gap {gap:.4g} > A's quartile spread {iqr:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref for side A (default HEAD)")
    parser.add_argument("--workload", default="sweep3d-fig7")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        out = Path(tmp) / "results"
        ref_tree = Path(tmp) / "ref"
        subprocess.run(["git", "worktree", "add", "--detach", str(ref_tree), args.ref],
                       cwd=ROOT, check=True)
        try:
            values = {name: ([], []) for name in metrics}
            print("pair " + " ".join(f"{f'A {n}':>13s} {f'B {n}':>13s} {'B/A':>6s}" for n in metrics))
            for i in range(args.pairs):
                sides = [("A", ref_tree), ("B", ROOT)]
                if i % 2:
                    sides.reverse()
                runs = {side: bench(tree, args.workload, out / side) for side, tree in sides}
                cells = []
                for name in metrics:
                    a, b = runs["A"][name], runs["B"][name]
                    values[name][0].append(a)
                    values[name][1].append(b)
                    cells.append(f"{a:13.4f} {b:13.4f} {b / a:6.3f}")
                print(f"{i:4d} " + " ".join(cells), flush=True)
            for name, better in metrics.items():
                print(f"{name} ({better} is better): {claim_verdict(*values[name], better)}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(ref_tree)],
                           cwd=ROOT, check=True)
        return subprocess.run(
            [sys.executable, str(ROOT / "bench" / "compare.py"), str(out / "A"), str(out / "B")]
        ).returncode


if __name__ == "__main__":
    sys.exit(main())
