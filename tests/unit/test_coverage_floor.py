"""tools/coverage_floor.py: argument forwarding and the never-run listing."""

import importlib.util
import os
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
    monkeypatch.delenv("PYTHONPATH", raising=False)  # main() exports src
    argv = ["tests/unit", "-q", "--per-file", "-k", "fabric and not flow", "-x"]
    assert tool.main(argv) == 0
    assert seen == [["tests/unit", "-q", "-k", "fabric and not flow", "-x"]]
    out = capsys.readouterr().out
    assert "repro/sim/engine.py" in out.replace("\\", "/")  # --per-file rows
    assert "TOTAL:" in out


_MODULE = '''\
from abc import ABC, abstractmethod


class Base(ABC):
    @abstractmethod
    def stub(self):
        return 1

    def todo(self):
        """Subclasses do it."""
        raise NotImplementedError("todo")

    def hook(self):
        """Docstring only."""

    def ran(self):
        return 2

    def unrun(self):
        """Never called."""
        x = 1
        return x

    def __repr__(self):  # pragma: no cover
        return "Base"


def outer():
    def inner():
        return 3
    return inner


def dead():
    def nested():
        return 4
    return nested
'''


def test_never_run_lists_functions_no_body_line_ran(tmp_path):
    tool = _coverage_floor()
    path = tmp_path / "mod.py"
    path.write_text(_MODULE, encoding="utf-8")
    lines = _MODULE.splitlines()

    def line_of(text):
        return lines.index(text) + 1

    # What a run calling ``Base().ran()`` and ``outer()`` executes.
    hits = {line_of("        return 2"), line_of("    def inner():"), line_of("    return inner")}
    assert tool.never_run(path, hits) == [
        ("Base.unrun", line_of("    def unrun(self):"), 2),
        ("outer.inner", line_of("    def inner():"), 1),
        # A function inside a never-run one is counted with it.
        ("dead", line_of("def dead():"), 3),
    ]


def test_report_lists_never_run_functions_and_exports_src(monkeypatch, capsys):
    tool = _coverage_floor()
    seen = []
    monkeypatch.setattr(tool, "Collector", _NoTrace)
    monkeypatch.setattr(
        pytest, "main", lambda args: seen.append(os.environ["PYTHONPATH"]) or 0
    )
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert tool.main(["tests/unit"]) == 0
    assert seen == [os.pathsep.join([str(ROOT / "src"), "elsewhere"])]
    out = capsys.readouterr().out
    assert "NEVER RUN:" in out.split("TOTAL:")[1]
    # Nothing ran, so the engine's run loop is listed.
    assert "repro/sim/engine.py:" in out and "Simulator.run " in out
