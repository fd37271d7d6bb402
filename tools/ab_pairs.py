"""Alternate benchmark runs between a git ref and the working tree.

    python tools/ab_pairs.py --ref HEAD --workload sweep3d-fig7 --pairs 10

Checks *ref* out into a temporary ``git worktree``, then runs
``bench/run.py --workload W`` N times in each tree, alternating A (the
ref) and B (the working tree) and swapping which goes first every pair,
so slow drift of the host lands on both sides.  Seed and run time are
``bench/run.py``'s defaults.  It prints ``run_s`` pair by pair, then
``bench/compare.py A B`` on the result files, and exits with that
script's status.  The worktree and result files are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(tree: Path, workload: str, out: Path) -> float:
    """One untraced ``bench/run.py`` run in *tree*; returns its ``run_s``."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last["metrics"]["run_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref for side A (default HEAD)")
    parser.add_argument("--workload", default="sweep3d-fig7")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        out = Path(tmp) / "results"
        ref_tree = Path(tmp) / "ref"
        subprocess.run(["git", "worktree", "add", "--detach", str(ref_tree), args.ref],
                       cwd=ROOT, check=True)
        try:
            wins = 0
            print(f"{'pair':>4s} {'A run_s':>9s} {'B run_s':>9s} {'B/A':>6s}")
            for i in range(args.pairs):
                sides = [("A", ref_tree), ("B", ROOT)]
                if i % 2:
                    sides.reverse()
                run_s = {side: bench(tree, args.workload, out / side) for side, tree in sides}
                wins += run_s["B"] < run_s["A"]
                print(f"{i:4d} {run_s['A']:9.4f} {run_s['B']:9.4f} "
                      f"{run_s['B'] / run_s['A']:6.3f}", flush=True)
            print(f"B faster in {wins} of {args.pairs} pairs")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(ref_tree)],
                           cwd=ROOT, check=True)
        return subprocess.run(
            [sys.executable, str(ROOT / "bench" / "compare.py"), str(out / "A"), str(out / "B")]
        ).returncode


if __name__ == "__main__":
    sys.exit(main())
