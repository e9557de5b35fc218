"""Source hygiene checks over the package modules."""

import ast
import re
from pathlib import Path

import quadcomp

PACKAGE = Path(quadcomp.__file__).parent
REPO = Path(__file__).resolve().parent.parent


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


def public_members(source: str) -> list:
    """The "Class.name" of every public method and property that the
    classes of a module define, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [
                "%s.%s" % (node.name, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return list(dict.fromkeys(found))  # a property's setter repeats its name


def attributes_read(source: str) -> set:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_public_members(package: dict, readers: dict, readme: str) -> dict:
    """{module: public members of its classes that no source in `readers`
    reads as an attribute and `readme` never names as `.name`}."""
    read = set().union(*map(attributes_read, readers.values()))
    read |= set(re.findall(r"\.(\w+)", readme))
    found = {
        module: [m for m in public_members(source) if m.split(".")[1] not in read]
        for module, source in package.items()
    }
    return {module: members for module, members in found.items() if members}


def test_unread_public_members_are_found():
    a = (
        "class Box:\n"
        "    def get(self):\n        return self._peek()\n"
        "    def _peek(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    @size.setter\n    def size(self, v):\n        pass\n"
        "    @property\n    def spare(self):\n        return 0\n"
        "    def shown(self):\n        pass\n"
        "    def put(self):\n        pass\n"
        "def unread():\n    pass\n"
    )
    # writing b.spare is not reading it, and a name alone is not an attribute
    b = "box = Box()\nbox.get()\nbox.spare = 1\nput = 2\nprint(box.size)\n"
    readme = "Call `box.shown()` to show it; put it away.\n"
    assert unread_public_members({"a.py": a}, {"a.py": a, "b.py": b}, readme) == {
        "a.py": ["Box.spare", "Box.put"]
    }


def test_every_public_member_is_read():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {
        str(path.relative_to(REPO)): path.read_text()
        for folder in ("src", "tests", "bench")
        for path in sorted((REPO / folder).rglob("*.py"))
    }
    readme = (REPO / "README.md").read_text()
    assert unread_public_members(package, readers, readme) == {}


def derived_views_read(source: str) -> list:
    """(line, name) of every read of the attribute `delta` or `trans`, in
    source order."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in ("delta", "trans")
    )


def test_derived_view_reads_are_found():
    # defining, writing or naming a view is not reading it
    source = (
        "class N:\n    def delta(self):\n        return self.rows\n"
        "m.trans = {}\ndelta = n.rows\nt = n.delta[0][1]\nfor e in m.trans.items():\n    pass\n"
    )
    assert derived_views_read(source) == [(6, "delta"), (7, "trans")]


def test_no_module_reads_a_derived_view():
    # N's `delta` and M's `trans` are tuple and dict views derived from
    # their arrays, kept for the tests and the benchmark; the package reads
    # `rows` and `table`
    found = {
        str(path.relative_to(REPO)): derived_views_read(path.read_text())
        for path in sorted((REPO / "src").rglob("*.py"))
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def imports_numpy(source: str) -> bool:
    """Whether a module imports numpy or one of its submodules."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "numpy":
                return True
    return False


def test_numpy_imports_are_found():
    found = ["import numpy as np\n", "import os, numpy.linalg\n", "from numpy import zeros\n",
             "def f():\n    from numpy.fft import rfft\n"]
    missed = ["import numpyro\n", "from .numpy import x\n", "from . import numpy\n",
              "# import numpy\n", "s = 'import numpy'\n"]
    assert [imports_numpy(s) for s in found + missed] == [True] * 4 + [False] * 5


def test_only_the_array_modules_import_numpy():
    # the subset walks live in automaton.py, the batched Rabin kernel in
    # _batch.py and the letter-map tables (step_table) in finite_field.py;
    # every other module works on Python values
    found = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("automaton.py", "_batch.py", "finite_field.py")
        and imports_numpy(path.read_text())
    ]
    assert found == []


def module_constants(source: str) -> set:
    """Every name a module assigns at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def stale_constants(readme: str, sources: dict) -> list:
    """The backticked upper-case constants (`MAX_X`, `_Y_LIMIT`) that `readme`
    names and no module of `sources` assigns at its top level, in order."""
    known = set().union(*map(module_constants, sources.values()))
    named = re.findall(r"`(_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`", readme)
    return [name for name in dict.fromkeys(named) if name not in known]


def test_stale_constants_are_found():
    sources = {"a.py": "MAX_Q = 3\n_TABLE_LIMIT: int = 4\ndef f():\n    INNER_LIMIT = 5\n",
               "b.py": "from .a import MAX_Q as MAX_ALIAS\n"}
    # a constant assigned inside a function or only imported, and a removed
    # one named twice, are found once each; plain capitals and code spans
    # with calls or attributes are not constants
    readme = ("`MAX_Q` and `_TABLE_LIMIT` stay; `INNER_LIMIT`, `MAX_ALIAS` and\n"
              "`_LOG_TABLE_LIMIT` went (`_LOG_TABLE_LIMIT`). `M`, `N`, `f(MAX_Q)`,\n"
              "`a.MAX_GONE` and MAX_BARE are not checked.\n")
    assert stale_constants(readme, sources) == ["INNER_LIMIT", "MAX_ALIAS", "_LOG_TABLE_LIMIT"]


def test_every_constant_the_readme_names_exists():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert stale_constants((REPO / "README.md").read_text(), sources) == []


def function_imports(source: str) -> list:
    """The qualified name ("f", "f.inner", "Class.method") of the function
    around each import statement that runs inside a function, in source
    order."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.append(".".join(scope))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_function_imports_are_found():
    # imports at module or class level, guarded or not, run once on import
    source = (
        "import os\ntry:\n    import z\nexcept ImportError:\n    z = None\n"
        "def f():\n    import sys\n    def inner():\n        from . import a\n"
        "class C:\n    import json\n    def m(self):\n        if z:\n            from x import y\n"
    )
    assert function_imports(source) == ["f", "f.inner", "C.m"]


def test_only_the_import_that_breaks_the_cycle_sits_in_a_function():
    # polynomial imports finite_field, whose modulus search needs Poly and
    # Rabin's test; an import inside any other function hides a new cycle
    found = [
        "%s.%s" % (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in function_imports(path.read_text())
    ]
    assert found == ["finite_field._smallest_irreducible"]
