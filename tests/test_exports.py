"""Every export list names something that exists, so a deleted function
cannot linger in an `__all__`."""

import importlib
import pkgutil

import pytest

import cqs

MODULES = sorted(info.name for info in pkgutil.iter_modules(cqs.__path__)
                 if not info.name.startswith("_"))


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
