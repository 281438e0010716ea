"""Dead-code guards: every name a module of the package, the tests or the
scripts imports is used in it, and every function, class or assigned name
one of them defines at module level, and every method of such a class, is
read somewhere.

No linter ships with the toolchain, so these checks use only `ast`.
The package's `__init__.py` is exempt from the first: its imports are its
public names.
"""

import ast
import re
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


# Where a definition may be referenced: the perf bench wraps package
# functions by name, so its modules count too.
REFERENCING = [p for d in ("src", "tests", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def referenced_names(source: str) -> set[str]:
    """Names, attributes, imported names, argument names (pytest fixtures)
    and identifiers inside string constants (names looked up by string)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= set(re.findall(r"\w+", node.value))
    return names


_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function, class or name
    bound by assignment other than a dunder, and of each method of such a
    class other than a dunder."""
    for node in tree.body:
        if isinstance(node, _DEFINITION):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFINITION) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def dead_definitions(defining: dict[str, str], referencing: list[str]) -> list[str]:
    """`file: name` for each definition of the sources `defining` (file name
    -> source) that no source in `referencing` names; tests (`test_*`,
    `Test*`, with their methods) and `main` are exempt."""
    used = set().union(*map(referenced_names, referencing))
    return [
        f"{name}: {qualified}"
        for name, source in defining.items()
        for qualified, short in _definitions(ast.parse(source))
        if not qualified.startswith(("test_", "Test"))
        and short != "main"
        and short not in used
    ]


def test_guard_sees_a_dead_definition():
    source = (
        "def used():\n    pass\n\ndef dead():\n    return used()\n\n"
        "class TestSuite:\n    def helper(self):\n        pass\n\ndef main():\n    used()\n\n"
        "class Box:\n    def __init__(self):\n        self.open()\n\n"
        "    def open(self):\n        pass\n\n    def shut(self):\n        pass\n\nBox()\n"
    )
    assert dead_definitions({"a.py": source}, [source]) == ["a.py: dead", "a.py: Box.shut"]
    assert dead_definitions({"a.py": source}, [source, "getattr(m, 'dead')", "b.shut()"]) == []


def test_guard_sees_a_dead_assignment():
    source = (
        "__all__ = ['f']\nUSED = 1\nDEAD = 2\nA, (B, C) = 1, (2, 3)\nN: int = 4\nM: int\n"
        "def f():\n    global DEAD\n    DEAD = USED + A + C\n    return N\n\nf()\n"
    )
    assert dead_definitions({"a.py": source}, [source]) == ["a.py: DEAD", "a.py: B", "a.py: M"]
    assert dead_definitions({"a.py": source}, [source, "m.DEAD", "getattr(m, 'B')", "M"]) == []


def test_no_dead_definitions():
    defining = {
        str(p.relative_to(ROOT)): p.read_text()
        for d in ("src/ospz", "tests", "scripts")
        for p in sorted((ROOT / d).glob("*.py"))
    }
    assert dead_definitions(defining, [p.read_text() for p in REFERENCING]) == []


def relative_imports_in_functions(source: str, module: str) -> list[str]:
    """`module.qualified.name: from .x import y` for each relative import
    made inside a function of `source`."""
    found = []

    def visit(node, qualified: str, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITION):
                inner = in_function or not isinstance(child, ast.ClassDef)
                visit(child, f"{qualified}.{child.name}", inner)
                continue
            if in_function and isinstance(child, ast.ImportFrom) and child.level:
                names = ", ".join(a.name for a in child.names)
                found.append(f"{qualified}: from {'.' * child.level}{child.module or ''} import {names}")
            visit(child, qualified, in_function)

    visit(ast.parse(source), module, False)
    return found


def test_guard_sees_an_import_inside_a_function():
    source = "from .a import b\n\nclass C:\n    def f(self):\n        from .d import e\n        return e\n"
    assert relative_imports_in_functions(source, "m") == ["m.C.f: from .d import e"]


def test_modules_import_each_other_at_module_level():
    found = [
        line
        for p in sorted((ROOT / "src/ospz").glob("*.py"))
        for line in relative_imports_in_functions(p.read_text(), p.stem)
    ]
    # text imports engine, so PBWElement.__repr__ imports render when called.
    assert found == ["engine.PBWElement.__repr__: from .text import render"]
