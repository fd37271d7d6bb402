"""The API-docs generator must run clean and cover the public surface."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _generator():
    return _tool("gen_api_docs")


def test_gen_api_docs_runs_and_covers_packages():
    text = _generator().render()
    for anchor in (
        "## `repro.sim.engine`",
        "## `repro.nic.rvma`",
        "## `repro.core.api`",
        "## `repro.mpi.rma`",
        "#### `RvmaNic`",
        "#### `Simulator`",
    ):
        assert anchor in text, f"missing {anchor}"
    # The generated reference is substantial, not a stub.
    assert text.count("####") > 100
    # The committed reference is current: regenerate it with `make docs`.
    assert (ROOT / "docs" / "API.md").read_text(encoding="utf-8") == text


def test_render_figures_tool_fast_subset(tmp_path, monkeypatch):
    """The figure renderer produces valid SVG files (fast figures only)."""
    import xml.etree.ElementTree as ET

    from repro.experiments.fig45 import run_fig4
    from repro.experiments.svgcharts import svg_for_result

    svg = svg_for_result(run_fig4(sizes=[2, 1024], iterations=3))
    ET.fromstring(svg)
    out = tmp_path / "fig4.svg"
    out.write_text(svg)
    assert out.stat().st_size > 1000


def test_docs_name_only_repro_objects_that_exist():
    """docs_check's name check: every backticked dotted ``repro.`` name in
    the docs resolves, and a missing one is caught."""
    check = _tool("docs_check")
    assert check.resolves("repro.sim.engine.Simulator.run")
    assert check.resolves("repro.observability")
    assert not check.resolves("repro.sim.no_such_module.Thing")
    assert not check.resolves("repro.sim.Simulator.no_such_method")
    assert check.check_dotted_names() == []
