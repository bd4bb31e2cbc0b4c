"""Every export list names something that exists, so a deleted function
cannot linger in an `__all__`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cqs

MODULES = sorted(info.name for info in pkgutil.iter_modules(cqs.__path__)
                 if not info.name.startswith("_"))
SOURCES = Path(cqs.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cqs.{name}")
    assert module.__all__
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from cqs import *", namespace)
    assert set(cqs.__all__) <= set(namespace)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads (its `__all__` counts as a
    read); a `from __future__` import binds no name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# the package's __init__ imports to re-export
@pytest.mark.parametrize("path", sorted(set(SOURCES.glob("*.py")) - {SOURCES / "__init__.py"}),
                         ids=lambda path: path.name)
def test_no_orphaned_imports(path):
    """A name that a change stops using does not linger in an import."""
    assert not _unused_imports(ast.parse(path.read_text()))
