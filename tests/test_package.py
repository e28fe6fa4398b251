"""Package-level contracts: public names resolve, the CLI imports lightly."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pempinn

MODULES = ["pempinn"] + [
    f"pempinn.{m.name}" for m in pkgutil.iter_modules(pempinn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_importing_the_cli_loads_neither_mmap_nor_signal():
    # Each is imported where it is used, so that every command's start up
    # pays for none of them; no command uses the autodiff engine at all.
    code = (
        "import sys, pempinn.cli; "
        "print(sorted({'mmap', 'signal', 'pempinn.autodiff'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pempinn.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert run.stdout == "[]\n"
