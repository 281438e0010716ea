"""No-float guard: the package computes over Q(H) and Q only.

No linter ships with the toolchain, so this check uses only `ast`.  It fails
on a float (or imaginary) literal and on any use of the name `float` in
`src/ospz/*.py`; words in strings and docstrings do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ospz"
MODULES = sorted(PACKAGE.glob("*.py"))


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"name float (line {node.lineno})")
    return sorted(found)


def test_guard_sees_floats():
    source = '"""no float here"""\nx = 0.5\n\ndef f(n: int) -> int:\n    return float(n) or 2j\n'
    assert float_uses(source) == ["literal 0.5 (line 2)", "literal 2j (line 5)", "name float (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []
