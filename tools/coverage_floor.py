#!/usr/bin/env python3
"""Measure line coverage of ``src/repro`` with stdlib machinery only.

CI enforces a coverage floor through pytest-cov (see the ``test`` job in
``.github/workflows/ci.yml``), but pytest-cov is a dev extra — this tool
answers "what is coverage right now?" on a box that only has the runtime
deps, and is how the committed ``--cov-fail-under`` number was measured.

    python tools/coverage_floor.py                 # whole test suite
    python tools/coverage_floor.py tests/unit -q   # any pytest args
    python tools/coverage_floor.py --per-file tests/unit -k fabric

Every argument except ``--per-file`` (print every module's number) is
passed to pytest unchanged and in order.  ``src`` is exported on
``PYTHONPATH`` too, so tests that start a Python subprocess import the
same tree.

After the totals it lists the never-run functions: those none of whose
body lines executed.  Abstract methods, ``# pragma: no cover`` blocks and
bodies that hold only a docstring or ``raise NotImplementedError`` are
not listed; a function inside a listed one is counted with it.

It installs a ``sys.settrace`` hook (threads included via
``threading.settrace``), runs pytest in-process, then reports
executed/executable lines per module.  Executable lines come from the
AST (statement line numbers, ``# pragma: no cover`` blocks excluded), so
the percentage tracks coverage.py closely but not exactly — treat small
deltas as noise and set floors conservatively.  Subprocesses (the
example smoke tests) are not traced, same as a default coverage.py run.

Tracing costs roughly an order of magnitude in wall time; use a subset
of tests for a quick look.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"

PRAGMA = "pragma: no cover"


def executable_lines(path: Path) -> set[int]:
    """Statement line numbers coverage would expect to see executed."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    src_lines = source.splitlines()
    pragma_lines = {
        i + 1 for i, line in enumerate(src_lines) if PRAGMA in line
    }
    excluded: set[int] = set()
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
        if any(l in pragma_lines for l in range(node.lineno, node.lineno + 1)):
            excluded.update(span)
        lines.add(node.lineno)
    return {l for l in lines if l not in excluded}


def _is_stub(body: list[ast.stmt]) -> bool:
    """True for a body of only a docstring and/or ``raise NotImplementedError``."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if name == "abstractmethod":
            return True
    return False


def never_run(path: Path, hits: set[int]) -> list[tuple[str, int, int]]:
    """``(qualname, def line, body lines)`` of each function in *path* none
    of whose executable body lines is in *hits*."""
    want = executable_lines(path)
    found: list[tuple[str, int, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                body = child.body
                if (body and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)):
                    body = body[1:]
                if child.lineno not in want or _is_abstract(child) or _is_stub(body):
                    continue
                lines = {
                    l for l in want
                    if body[0].lineno <= l <= (child.end_lineno or l)
                }
                if lines and not lines & hits:
                    found.append((qualname, child.lineno, len(lines)))
                else:
                    visit(child, f"{qualname}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class Collector:
    """Per-file executed-line sets, fed by the trace hook."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = {}
        self._prefix = str(PKG)

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None  # skip line events for non-repro frames entirely
        if event == "line":
            hits = self.hits.get(filename)
            if hits is None:
                hits = self.hits[filename] = set()
            hits.add(frame.f_lineno)
        return self.trace

    def install(self) -> None:
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def split_args(argv: list[str]) -> tuple[list[str], bool]:
    """``(pytest_args, per_file)``: every argument but ``--per-file`` goes
    to pytest verbatim and in order, dash-prefixed options included."""
    return [a for a in argv if a != "--per-file"], "--per-file" in argv


def main(argv: list[str] | None = None) -> int:
    pytest_args, per_file = split_args(sys.argv[1:] if argv is None else argv)

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import pytest

    collector = Collector()
    collector.install()
    try:
        exit_code = pytest.main(pytest_args or ["tests/"])
    finally:
        collector.uninstall()
    if exit_code != 0:
        print(f"pytest exited {exit_code}; coverage below reflects a failed run")

    total_exec = total_hit = 0
    rows = []
    unrun = []
    for path in sorted(PKG.rglob("*.py")):
        want = executable_lines(path)
        if not want:
            continue
        hits = collector.hits.get(str(path), set())
        got = hits & want
        total_exec += len(want)
        total_hit += len(got)
        rel = path.relative_to(SRC)
        rows.append((rel, len(got), len(want)))
        unrun.extend((rel, *fn) for fn in never_run(path, hits))

    if per_file:
        for rel, hit, want in rows:
            print(f"{100.0 * hit / want:6.1f}%  {hit:5}/{want:<5}  {rel}")
    pct = 100.0 * total_hit / max(total_exec, 1)
    print(f"\nTOTAL: {total_hit}/{total_exec} lines = {pct:.2f}%")
    n_lines = sum(n for *_, n in unrun)
    print(f"\nNEVER RUN: {len(unrun)} functions, {n_lines} lines")
    for rel, qualname, line, n in unrun:
        print(f"  {rel.as_posix()}:{line}  {qualname}  ({n} lines)")
    return 0 if exit_code == 0 else int(exit_code)


if __name__ == "__main__":
    sys.exit(main())
