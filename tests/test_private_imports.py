"""No module imports another module's private (underscore) names.

A ``_name`` is an implementation detail of the module that defines it;
importing it from elsewhere gives one concept two owners without saying
so.  This test parses every module under ``src/repro`` and fails on any
``from repro.<other module> import _name`` (dunder names excepted).
Make the name public, or move it to its only user.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "repro"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_module(node: ast.ImportFrom, importer: str,
                     is_package: bool) -> str | None:
    if node.level == 0:
        return node.module
    base = importer.split(".")
    if not is_package:
        base = base[:-1]
    base = base[:len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def private_imports(source: str, importer: str,
                    is_package: bool = False) -> list[str]:
    """``line: from module import _name`` for each offending alias in
    ``source``, the text of module ``importer``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _imported_module(node, importer, is_package)
        if module is None or module == importer \
                or not (module == "repro" or module.startswith("repro.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                found.append(f"{node.lineno}: from {module} import {name}")
    return found


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE.parent)
        offenders.extend(
            f"{where}:{line}" for line in private_imports(
                path.read_text(encoding="utf-8"), _module_name(path),
                is_package=path.name == "__init__.py"))
    assert offenders == [], "\n".join(offenders)


@pytest.mark.parametrize("source, flagged", [
    ("from repro.fuzz.seeds import _context\n", True),
    ("from repro.fuzz.seeds import context as _context\n", False),
    ("from repro.fuzz import seeds\n", False),
    ("from . import _private\n", True),
    ("from .spec import _suggest\n", True),
    ("def f():\n    from repro.scenarios.spec import _suggest\n", True),
    ("from repro import __version__\n", False),
    ("from os import _exit\n", False),
])
def test_checker_flags_underscore_names_only(source, flagged):
    found = private_imports(source, "repro.scenarios.registry")
    assert bool(found) is flagged, found

