"""Every name a ``plurelgen`` module lists in ``__all__`` resolves in that module,
and importing the command line pulls in no optional heavy dependency."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import plurelgen

MODULES = ["plurelgen"] + [f"plurelgen.{m.name}" for m in pkgutil.iter_modules(plurelgen.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test-only reference whose import costs more start-up time
    # and memory than generation spent in it, so the CLI must load without it
    src = Path(plurelgen.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, plurelgen.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
