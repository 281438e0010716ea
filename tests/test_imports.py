"""Dead-import guard: every name a module of the package, the tests or the
scripts imports is used in it.

No linter ships with the toolchain, so this check uses only `ast`.
The package's `__init__.py` is exempt: its imports are its public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    p
    for d in ("src/ospz", "tests", "scripts")
    for p in sorted((ROOT / d).glob("*.py"))
    if p.name != "__init__.py"
]


def _annotation_names(node) -> set[str]:
    """Names inside an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            used |= _annotation_names(ann)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    source = "import os\nfrom typing import Sequence, Callable\n\ndef f(x: 'Sequence[int]'):\n    return os.sep\n"
    assert unused_imports(source) == ["Callable (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
