"""Every public name is reached by something other than the tests.

A name listed in a module's ``__all__`` must be referenced in another
place under ``src/arrcoh``, named in README.md, or used by the benchmark
under ``perfbench/``.  An entry in the export table of ``arrcoh/__init__.py``
is a string, not a reference, so exporting a name does not reach it.  A
name that only tests reach is code no user can rely on: delete it instead.
A module-level private function or class (``_name``) must be referenced
under ``src/arrcoh`` outside its own definition, so an oracle that only
tests use lives in ``tests/``.  A public method or property of a class
must be reached by an attribute access under ``src/arrcoh`` outside its own
definition, or be named in README.md or ``perfbench/``.  Dunder names
(``__getattr__``, ``__eq__``) are exempt: the interpreter calls them.
"""

import ast
import functools
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


def _trees(package: Path = PACKAGE) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _reached_in_src(trees: dict[Path, ast.Module], path: Path, name: str) -> bool:
    own = _definition(trees[path], name)
    return any(name in _references(t, own if p == path else None) for p, t in trees.items())


@functools.cache
def _outside_src() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8") + "".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))
    )


def _named_outside_src(name: str) -> bool:
    """Is ``name`` a word of README.md or of the benchmark's code?"""
    return re.search(rf"\b{re.escape(name)}\b", _outside_src()) is not None


def unreached_public_names(package: Path = PACKAGE) -> list[str]:
    """The ``__all__`` names of the modules of ``package`` that nothing in
    it references outside their own definition, and that README.md and
    ``perfbench/`` do not name; the package's export table does not count."""
    trees = _trees(package)
    offenders = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name in _all_names(tree):
            if not _named_outside_src(name) and not _reached_in_src(trees, path, name):
                offenders.append(f"{path.name}: {name}")
    return offenders


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_private_helpers(package: Path = PACKAGE) -> list[str]:
    trees = _trees(package)
    offenders = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_dunder(node.name):
                continue
            if node.name.startswith("_") and not _reached_in_src(trees, path, node.name):
                offenders.append(f"{path.name}: {node.name}")
    return offenders


def unreached_public_members(package: Path = PACKAGE) -> list[str]:
    """Public methods and properties of module-level classes that no
    attribute access under ``package`` reaches outside their own
    definition (a local variable of the same name does not count)."""
    trees = _trees(package)
    accesses: dict[str, list[ast.Attribute]] = {}
    for tree in trees.values():
        for a in ast.walk(tree):
            if isinstance(a, ast.Attribute):
                accesses.setdefault(a.attr, []).append(a)
    offenders = []
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or _named_outside_src(node.name):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if all(id(a) in own for a in accesses.get(node.name, ())):
                    offenders.append(f"{path.name}: {cls.name}.{node.name}")
    return offenders


def test_every_public_name_is_reached():
    assert unreached_public_names() == []


def test_public_rule_does_not_count_an_export(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '_EXPORTS = {"exported_orphan": "mod", "exported_used": "mod"}\n', encoding="utf-8"
    )
    (tmp_path / "mod.py").write_text(
        '__all__ = ["exported_orphan", "exported_used"]\n\n\n'
        "def exported_orphan():\n    return exported_orphan\n\n\n"
        "def exported_used():\n    return 2\n\n\n"
        "VALUE = exported_used()\n",
        encoding="utf-8",
    )
    assert unreached_public_names(tmp_path) == ["mod.py: exported_orphan"]


def test_every_private_helper_is_reached_from_src():
    assert unreached_private_helpers() == []


def test_private_rule_names_orphans_and_skips_dunders(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "def __getattr__(name):\n    raise AttributeError(name)\n", encoding="utf-8"
    )
    (tmp_path / "mod.py").write_text(
        "def _orphan():\n    return 1\n\n\ndef _used():\n    return 2\n\n\nVALUE = _used()\n",
        encoding="utf-8",
    )
    assert unreached_private_helpers(tmp_path) == ["mod.py: _orphan"]


def test_every_public_member_is_reached_from_src():
    assert unreached_public_members() == []


def test_member_rule_names_orphans_and_skips_dunders(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    def _hidden(self):\n        return 0\n\n"
        "    def orphan_method(self):\n        return self.orphan_method\n\n"
        "    @property\n    def called_property(self):\n        return 2\n\n\n"
        "VALUE = Box().called_property\n",
        encoding="utf-8",
    )
    assert unreached_public_members(tmp_path) == ["mod.py: Box.orphan_method"]
