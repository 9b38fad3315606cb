"""Every public name is reached by something other than the tests.

A name listed in a module's ``__all__`` must be exported from
``arrcoh/__init__.py``, referenced in another place under ``src/arrcoh``,
named in README.md, or used by the benchmark under ``perfbench/``.  A name
that only tests reach is code no user can rely on: delete it instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "arrcoh"


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def _references(tree: ast.Module, skip: ast.AST | None) -> set[str]:
    """Names used in ``tree`` as names, attributes or imports, outside ``skip``."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def unreached_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(_all_names(trees[PACKAGE / "__init__.py"]))
    outside_src = (ROOT / "README.md").read_text(encoding="utf-8") + "".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    offenders = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name in _all_names(tree):
            if name in exported or re.search(rf"\b{re.escape(name)}\b", outside_src):
                continue
            own = _definition(tree, name)
            if not any(name in _references(t, own if p == path else None) for p, t in trees.items()):
                offenders.append(f"{path.name}: {name}")
    return offenders


def test_every_public_name_is_reached():
    assert unreached_public_names() == []
