"""Guard: every import under ``src/repro`` is used by its module.

An import that nothing reads costs a load on every run that reaches its
module and tells a reader about a dependency that is not there.  The
scan is stdlib ``ast`` only: a name an import binds counts as used when
the module reads it (a bare name, or the root of an attribute chain),
names it in a string annotation, or lists it in ``__all__``.  Package
``__init__.py`` files are skipped, since their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read inside an annotation, string annotations parsed."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(path: Path, root: Path = SRC.parent) -> list[str]:
    """``file:line name`` for each import in *path* that the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    found.append(f"{path.relative_to(root)}:{node.lineno} {bound}")
    return found


def test_unused_imports_are_named_by_file_and_line(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\nimport sys as system\nfrom typing import Optional, TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from pathlib import Path\n"
        "def f(p: 'Path') -> Optional[int]:\n    return system.maxsize\n"
    )
    assert unused_imports(mod, root=tmp_path) == ["mod.py:1 os"]


def test_no_module_under_src_imports_what_it_never_uses():
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)
