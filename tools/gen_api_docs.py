#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every public module under ``repro``, collecting module, class and
function docstring summaries into one browsable reference.  Run after
API changes:

    python tools/gen_api_docs.py

``tests/integration/test_docs_generator.py`` fails while the committed
file differs from :func:`render`.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parents[1] / "docs" / "API.md"

SKIP_MODULES = {"repro._version"}


def first_line(doc: str | None) -> str:
    """First paragraph of *doc*, collapsed to one line and capped."""
    if not doc:
        return "*(undocumented)*"
    para: list[str] = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        para.append(line.strip())
    text = " ".join(para).rstrip(".") + "."
    return text if len(text) <= 160 else text[:157] + "..."


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - import errors are fatal anyway
            print(f"warning: skipping {info.name}: {exc}", file=sys.stderr)


def public_members(module):
    names = getattr(module, "__all__", None)
    classes, functions = [], []
    for name, obj in inspect.getmembers(module):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their home module
        if names is not None and name not in names and module.__name__ != "repro":
            pass  # keep: module-level defs are worth documenting even if not exported
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    return classes, functions


def class_doc(cls) -> str | None:
    """Docstring of *cls* or of its nearest ``repro`` base class.

    Never the interpreter's: ``inspect.getdoc`` would hand an undocumented
    Enum or exception the stdlib's docstring, which differs between Python
    versions, and the committed API.md must not.
    """
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            return None
        doc = klass.__dict__.get("__doc__")
        if doc:
            return inspect.cleandoc(doc)
    return None


def class_section(name: str, cls) -> list[str]:
    lines = [f"#### `{name}`", "", first_line(class_doc(cls)), ""]
    methods = []
    for mname, meth in inspect.getmembers(cls, predicate=inspect.isfunction):
        if mname.startswith("_") or meth.__qualname__.split(".")[0] != name:
            continue
        try:
            sig = str(inspect.signature(meth)).replace("self, ", "").replace("(self)", "()")
        except (TypeError, ValueError):
            sig = "(...)"
        if len(sig) > 120:
            sig = "(...)"
        methods.append(f"- `{mname}{sig}` — {first_line(inspect.getdoc(meth))}")
    if methods:
        lines.extend(methods)
        lines.append("")
    return lines


def render() -> str:
    """The text of docs/API.md for the package as imported."""
    lines = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for mod_name, module in sorted(iter_modules(), key=lambda kv: kv[0]):
        classes, functions = public_members(module)
        if not classes and not functions and mod_name != "repro":
            continue
        lines.append(f"## `{mod_name}`")
        lines.append("")
        lines.append(first_line(inspect.getdoc(module)))
        lines.append("")
        for name, cls in classes:
            lines.extend(class_section(name, cls))
        for name, fn in functions:
            try:
                sig = str(inspect.signature(fn))
            except (TypeError, ValueError):
                sig = "(...)"
            if len(sig) > 120:
                sig = "(...)"
            lines.append(f"#### `{name}{sig}`")
            lines.append("")
            lines.append(first_line(inspect.getdoc(fn)))
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    """Write ``docs/API.md``; the tool takes no options (``--help`` says so)."""
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
