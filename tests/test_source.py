"""Checks on the package source itself, read with `ast`."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "noksurf"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A name counts as read when it appears as a name anywhere in the module
    or as a string in `__all__`; `from __future__` imports are directives,
    not names.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from math import gcd, lcm as l\n"
        "from . import linalg\n"
        "__all__ = ['gcd']\n"
        "def f():\n"
        "    return linalg.solve\n"
    )
    assert unused_imports(source) == ["l (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    # the records derive from record.Record; dataclasses would load inspect
    # and exec generated methods in every cold command
    source = "import os.path\nfrom dataclasses import field\nfrom . import linalg\n"
    assert imported_modules(source) == {"os", "dataclasses"}
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
