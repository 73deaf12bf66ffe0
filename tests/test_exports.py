"""Every name a ``plurelgen`` module lists in ``__all__`` resolves in that module."""

import importlib
import pkgutil

import pytest

import plurelgen

MODULES = ["plurelgen"] + [f"plurelgen.{m.name}" for m in pkgutil.iter_modules(plurelgen.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
