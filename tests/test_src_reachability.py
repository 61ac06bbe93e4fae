"""Every module under ``src/repro`` is reachable.

A module that no other ``repro`` module imports, and that cannot be run
as a program, is either dead code or a test helper that belongs in
``tests/``.  This test works that out from the code, with no allowlist:
it parses every module, resolves its ``repro`` imports (absolute,
relative, and ``from package import submodule``), and fails on any
non-package module that no other module imports and that has no
``if __name__ == "__main__"`` guard.
"""

import ast

import pytest

from tests.test_private_imports import PACKAGE, _imported_module, _module_name


def imported_modules(tree: ast.Module, importer: str,
                     is_package: bool = False) -> set[str]:
    """Every dotted name ``tree`` (the module ``importer``) imports,
    including ``package.name`` for each ``from package import name``
    (which imports the submodule when one exists)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node, importer, is_package)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def has_main_guard(tree: ast.Module) -> bool:
    """True when a top-level ``if __name__ == "__main__":`` exists."""
    for node in tree.body:
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.left, ast.Name)
                and test.left.id == "__name__"
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value == "__main__"):
            return True
    return False


def test_every_module_is_imported_or_runnable():
    trees = {}
    imported = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        name = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees[name] = (path, tree)
        imported.update(
            target for target in imported_modules(
                tree, name, is_package=path.name == "__init__.py")
            if target != name)
    unreachable = [
        str(path.relative_to(PACKAGE.parent))
        for name, (path, tree) in trees.items()
        if path.name != "__init__.py" and name not in imported
        and not has_main_guard(tree)
    ]
    assert unreachable == [], "\n".join(unreachable)


@pytest.mark.parametrize("source, target, found", [
    ("import repro.rtl.vcd\n", "repro.rtl.vcd", True),
    ("from repro.rtl import vcd\n", "repro.rtl.vcd", True),
    ("from repro.rtl.vcd import write_vcd\n", "repro.rtl.vcd", True),
    ("from .vcd import write_vcd\n", "repro.rtl.vcd", True),
    ("from . import vcd\n", "repro.rtl.vcd", True),
    ("def f():\n    from repro.rtl.vcd import write_vcd\n",
     "repro.rtl.vcd", True),
    ("from repro.rtl.trace import SignalTrace\n", "repro.rtl.vcd", False),
    ("# from repro.rtl import vcd\n", "repro.rtl.vcd", False),
])
def test_checker_resolves_import_forms(source, target, found):
    names = imported_modules(ast.parse(source), "repro.rtl.sim")
    assert (target in names) is found, names


@pytest.mark.parametrize("source, guarded", [
    ('if __name__ == "__main__":\n    main()\n', True),
    ("if __name__ == '__main__':\n    pass\n", True),
    ('def f():\n    if __name__ == "__main__":\n        pass\n', False),
    ('if __name__ != "__main__":\n    pass\n', False),
    ("main()\n", False),
])
def test_checker_finds_main_guard(source, guarded):
    assert has_main_guard(ast.parse(source)) is guarded
