"""Every name a ``plurelgen`` module lists in ``__all__`` resolves in that module,
and importing the command line loads no more than ``generate`` and ``corpus`` run."""

import importlib
import json
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


def _loaded_by_cli_import(modules: list[str]) -> list[str]:
    """The ``modules`` that a fresh ``import plurelgen.cli`` puts in ``sys.modules``."""
    src = Path(plurelgen.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import json, sys, plurelgen.cli; "
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test-only reference whose import costs more start-up time
    # and memory than generation spent in it, so the CLI must load without it
    assert _loaded_by_cli_import(["networkx"]) == []


def test_cli_import_loads_only_what_generate_and_corpus_run():
    # the analysis module serves stats, fit and profile, and the worker pool only
    # a pooled generate; each command imports them when it runs
    assert _loaded_by_cli_import(["plurelgen.analysis", "concurrent.futures"]) == []
