"""The README's Python quick start runs as printed.

Each block is executed statement by statement; an expression statement
with a trailing ``# value`` comment must evaluate to something whose repr
is exactly that comment, so the README cannot drift from the library.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_two_quick_start_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["arrangement", "toric"])
def test_readme_quick_start_values(index):
    block = BLOCKS[index]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comment, ast.unparse(stmt)
            checked.append(comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked  # every block shows at least one value
