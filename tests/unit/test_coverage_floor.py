"""tools/coverage_floor.py forwards its arguments to pytest untouched."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _coverage_floor():
    path = ROOT / "tools" / "coverage_floor.py"
    spec = importlib.util.spec_from_file_location("coverage_floor", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoTrace:
    """Stand-in collector: installing a real trace hook inside a test
    run would replace the hook of any coverage tool measuring it."""

    hits: dict = {}

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def test_dash_options_reach_pytest_verbatim_and_in_order(monkeypatch, capsys):
    tool = _coverage_floor()
    seen = []
    monkeypatch.setattr(tool, "Collector", _NoTrace)
    monkeypatch.setattr(pytest, "main", lambda args: seen.append(list(args)) or 0)
    argv = ["tests/unit", "-q", "--per-file", "-k", "fabric and not flow", "-x"]
    assert tool.main(argv) == 0
    assert seen == [["tests/unit", "-q", "-k", "fabric and not flow", "-x"]]
    out = capsys.readouterr().out
    assert "repro/sim/engine.py" in out.replace("\\", "/")  # --per-file rows
    assert "TOTAL:" in out
