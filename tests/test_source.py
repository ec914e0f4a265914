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


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """"module.function" for each module-level function of the package,
    given as {module name: source} with "__init__" for the package, that
    nothing references but its own body, nor the package's `__all__`.

    Names resolve per module: a bare name is the module's own function or
    one bound by `from .m import f [as g]`, and `k.f` is m's f when
    `from . import m [as k]` bound k.  So `model.rank` never counts as a
    use of `linalg.rank`.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    used = set()
    for name, tree in trees.items():
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for top in tree.body:
            owner = (name, top.name) if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    target = names.get(node.id, (name, node.id))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != owner:
                    used.add(target)
            if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
            ):
                used.update(names.get(n, (name, n)) for n in ast.literal_eval(top.value))
    return sorted(f"{m}.{f}" for m, f in defined - used)


def test_unreferenced_functions_are_found():
    sources = {
        "__init__": "from .a import f\n__all__ = ['f']\n",
        "a": (
            "def f():\n    return g()\n"
            "def g():\n    return 1\n"
            "def h():\n    return h()\n"
            "def rank():\n    return 0\n"
        ),
        "b": (
            "from . import a as alias\n"
            "from .a import g as gg\n"
            "def k(model):\n    return model.rank, alias.f, gg\n"
            "TABLE = {'m': lambda: m()}\n"
            "def m():\n    return 2\n"
        ),
    }
    # h only calls itself, model.rank is no use of a.rank, and nothing calls k
    assert unreferenced_functions(sources) == ["a.h", "a.rank", "b.k"]


# module-level functions that only code outside the package calls, with
# those callers
EXTERNAL_USERS = {
    "linalg.rank": "perfbench/tracing.py LAYERS and tests/test_linalg.py",
    "linalg.solve": "perfbench/tracing.py LAYERS and tests/test_linalg.py",
}


def test_every_function_is_referenced_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unreferenced_functions(sources) == sorted(EXTERNAL_USERS)
