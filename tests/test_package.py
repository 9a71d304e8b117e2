"""Package structure: exported names and start-up imports."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import wavelqg

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavelqg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"wavelqg.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"wavelqg.{name}.__all__ names {missing}"


def test_cli_start_up_does_not_import_scipy():
    # only ``verify`` needs the dense oracle, and with it scipy
    code = ("import sys, wavelqg.cli; wavelqg.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(wavelqg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
