"""Source hygiene checks over the package modules."""

import ast
from pathlib import Path

import quadcomp

PACKAGE = Path(quadcomp.__file__).parent


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, in import order.

    `from __future__` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import List\nsys.exit\n"
    assert unused_imports(source) == ["os", "List"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(source: str) -> list:
    """Module-level private names a module defines, in source order:
    functions, classes and assigned constants whose names start with one
    underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Every name a module reads: as a name, as an attribute, or by import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict) -> dict:
    """{module: private names it defines that no module in `sources` reads}."""
    read = set().union(*map(names_read, sources.values()))
    found = {
        module: [name for name in private_definitions(source) if name not in read]
        for module, source in sources.items()
    }
    return {module: names for module, names in found.items() if names}


def test_unread_private_names_are_found():
    a = (
        "_LIMIT: int = 3\n_SPARE = 4\n__all__ = []\n"
        "class _Box:\n    pass\n"
        "def _helper():\n    return _Box()\n"
        "def _orphan():\n    pass\n"
        "def public():\n    pass\n"
    )
    # writing a._SPARE is not reading it
    b = "from .a import _LIMIT\nimport a\na._helper()\na._SPARE = 6\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == {"a.py": ["_SPARE", "_orphan"]}


def test_every_private_module_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == {}
