"""The declared public surface: every name in an ``__all__`` exists, and
the package needs nothing beyond numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zpmomentum

MODULES = ["zpmomentum"] + [f"zpmomentum.{info.name}" for info in
                            pkgutil.iter_modules(zpmomentum.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    # bench/layers.py looks up every __all__ entry of the layer modules with
    # getattr, so a stale name would fail there as well as here
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []



def test_import_loads_no_scipy():
    # every module, the CLI included, imports numpy alone; scipy serves the
    # tests as an independent reference only
    src = str(Path(zpmomentum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    imports = "; ".join(f"import {name}" for name in MODULES)
    probe = (f"import sys; {imports}; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
