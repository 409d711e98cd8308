"""Every name a metaclust module exports in ``__all__`` exists and star-imports."""

import importlib
import pkgutil

import pytest

import metaclust

MODULES = ["metaclust"] + [f"metaclust.{info.name}" for info in pkgutil.iter_modules(metaclust.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
