"""Guard: every field of a config dataclass has a caller that sets it.

A field nobody sets is a constant dressed as an option: it has one value
in use, yet every reader must wonder what the others would do.  This
scan covers each ``@dataclass`` under ``src/repro`` whose name ends in
``Config``, ``Costs`` or ``Spec`` and looks for a caller that sets each
field anywhere in ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tools/``.  A field counts as set by

- a call of the class or of a subclass, by keyword or by position;
- a ``**`` splat (or ``*`` splat) in such a call, which sets every field;
- a keyword of ``dataclasses.replace`` (a ``**`` splat there names no
  class, so it counts for none);
- an attribute store (``cfg.field = v``, ``setattr(cfg, "field", v)``).

``replace`` and attribute stores are matched by field name alone, since
the scan does not know the type of the object they act on; so a store
of the same name on another object (``self.field = ...`` in some other
class) hides a field.  A field that fails the test wants a module
constant next to the code that reads it, not a default nobody
overrides.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "bench", "benchmarks", "examples", "tools")
SUFFIXES = ("Config", "Costs", "Spec")


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    )


def _own_fields(cls: ast.ClassDef) -> list[str]:
    """Init fields declared in *cls*'s body, in order."""
    fields = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and _name(value.func) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords)
        ):
            continue
        fields.append(stmt.target.id)
    return fields


def _trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def config_fields(trees: dict[Path, ast.Module]) -> dict[str, list[tuple[str, str]]]:
    """Each config dataclass under ``src/repro`` with its init fields in
    order, inherited first, each as (declaring class, field)."""
    own: dict[str, ast.ClassDef] = {}
    for path, tree in trees.items():
        if ROOT / "src" / "repro" not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith(SUFFIXES) and _is_dataclass(node):
                own[node.name] = node

    def fields(name: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for base in own[name].bases:
            if _name(base) in own:
                out += fields(_name(base))
        inherited = {f for _, f in out}
        return out + [(name, f) for f in _own_fields(own[name]) if f not in inherited]

    return {name: fields(name) for name in own}


def set_fields(
    trees: dict[Path, ast.Module], configs: dict[str, list[tuple[str, str]]]
) -> set[tuple[str, str]]:
    """Every (declaring class, field) some scanned call, replace or store sets."""
    # A subclass defined anywhere reaches its config base's fields.
    callee = {name: name for name in configs}
    changed = True
    while changed:
        changed = False
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name not in callee:
                    for base in node.bases:
                        if _name(base) in callee:
                            callee[node.name] = callee[_name(base)]
                            changed = True
                            break

    def by_name(field: str) -> set[tuple[str, str]]:
        return {(owner, f) for fs in configs.values() for owner, f in fs if f == field}

    hit: set[tuple[str, str]] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = _name(node.func)
                if fn in callee:
                    fields = configs[callee[fn]]
                    if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        k.arg is None for k in node.keywords
                    ):
                        hit |= set(fields)
                    hit |= set(fields[: len(node.args)])
                    named = {k.arg for k in node.keywords}
                    hit |= {(owner, f) for owner, f in fields if f in named}
                elif fn == "replace":
                    for k in node.keywords:
                        if k.arg is not None:
                            hit |= by_name(k.arg)
                elif fn == "setattr" and len(node.args) >= 2:
                    target, attr = node.args[0], node.args[1]
                    if isinstance(attr, ast.Constant):
                        hit |= by_name(attr.value)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                            hit |= by_name(sub.attr)
    return hit


def unset_fields() -> list[str]:
    trees = _trees()
    configs = config_fields(trees)
    hit = set_fields(trees, configs)
    declared = {pair for fs in configs.values() for pair in fs}
    return sorted(f"{owner}.{f}" for owner, f in declared - hit)


def test_census_reads_keywords_positions_splats_replace_and_stores():
    src = (
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass\nclass AConfig:\n    a: int = 0\n    b: int = 0\n    c: int = 0\n"
        "    d: int = 0\n    e: int = 0\n    g: list = field(default_factory=list, init=False)\n"
        "@dataclass\nclass BConfig(AConfig):\n    h: int = 0\n    i: int = 0\n"
        "class Mine(BConfig):\n    pass\n"
        "AConfig(1, b=2)\nx = replace(AConfig(), c=3)\nx.d = 4\nsetattr(x, 'e', 5)\n"
        "Mine(h=1)\nBConfig(**{})\n"
    )
    trees = {ROOT / "src" / "repro" / "m.py": ast.parse(src)}
    configs = config_fields(trees)
    a_fields = [("AConfig", f) for f in "abcde"]
    assert configs == {"AConfig": a_fields,
                       "BConfig": a_fields + [("BConfig", "h"), ("BConfig", "i")]}
    assert set_fields(trees, configs) == set(configs["BConfig"])
    # Without the splat, nothing sets BConfig.i.
    no_splat = {ROOT / "src" / "repro" / "m.py": ast.parse(src.replace("BConfig(**{})\n", ""))}
    assert set_fields(no_splat, configs) == set(configs["BConfig"]) - {("BConfig", "i")}


def test_every_config_field_is_set_by_some_caller():
    unset = unset_fields()
    assert unset == [], "config fields no caller sets (make them module constants):\n" + "\n".join(unset)
