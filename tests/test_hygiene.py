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
