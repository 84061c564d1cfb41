"""Every imported name is read somewhere in its module.

No lint tool is a dependency, so this test walks the syntax tree of each
module of src/, tests/ and demos/ with the standard library's ast. An
import is exempt when it is a __future__ import, a re-export of the
package's __init__.py, or on a line marked "# noqa: F401" (a name bound
for a reason the module itself does not show, which the marked line's
comment gives).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "crosspair" / "__init__.py"
MODULES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str, reexports: bool = False):
    """(line, name) of each name source imports and no expression reads;
    with reexports, its relative imports count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or reexports and node.level:
                continue
            names = [(a, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" in lines[alias.lineno - 1] or name == "*":
                continue
            if name not in read:
                found.append((alias.lineno, name))
    return found


def test_modules_found():
    assert PACKAGE_INIT in MODULES
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, reexports=path == PACKAGE_INIT) == []


@pytest.mark.parametrize("source,want", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from a import (b,\n    c)\nc()\n", [(1, "b")]),
    ("from a import b  # noqa: F401\n", []),
    ("from __future__ import annotations\n", []),
    ("from . import b\n", [(1, "b")]),
    ("import a\na = 1\n", [(1, "a")]),
    ("import a\ndef f(x: a.T): pass\n", []),
], ids=["import", "dotted", "alias", "wrapped", "marked", "future",
        "relative", "stored only", "annotation"])
def test_checker(source, want):
    assert unused_imports(source) == want
