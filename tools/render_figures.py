#!/usr/bin/env python3
"""Regenerate every paper figure as an SVG under docs/figures/.

    python tools/render_figures.py [--nodes N]

Runs the same experiment drivers as `rvma-experiments` and renders the
results with the dependency-free SVG chart module.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments.fig45 import run_fig4, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.motif_sweep import run_fig7, run_fig8
from repro.experiments.svgcharts import svg_for_result

OUT_DIR = Path(__file__).resolve().parents[1] / "docs" / "figures"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=64)
    args = parser.parse_args()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runners = {
        "fig4": lambda: run_fig4(),
        "fig5": lambda: run_fig5(),
        "fig6": lambda: run_fig6(),
        "fig7": lambda: run_fig7(n_nodes=args.nodes),
        "fig8": lambda: run_fig8(n_nodes=args.nodes),
    }
    for name, runner in runners.items():
        t0 = time.time()
        result = runner()
        svg = svg_for_result(result)
        path = OUT_DIR / f"{name}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"{path} ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
