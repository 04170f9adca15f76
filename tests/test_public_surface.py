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


LAYERS = [name for name in MODULES[1:]
          if name.rsplit(".", 1)[1] not in ("cli", "__main__")]


def test_package_exports_every_layer_name():
    # the package list is derived from the seven layer lists, so a name a
    # module declares is reachable from the package, as the same object
    from zpmomentum import TRIG_NAMES, resolving_epsilon, to_gaussian  # noqa
    assert len(LAYERS) == 7
    modules = [importlib.import_module(name) for name in LAYERS]
    declared = [name for module in modules for name in module.__all__]
    assert sorted(zpmomentum.__all__) == sorted(["__version__"] + declared)
    assert all(getattr(zpmomentum, name) is getattr(module, name)
               for module in modules for name in module.__all__)


def test_no_name_in_two_layer_lists():
    # with star re-exports a duplicate would silently shadow the other
    owners = {}
    for name in LAYERS:
        for public in importlib.import_module(name).__all__:
            owners.setdefault(public, []).append(name)
    assert {k: v for k, v in owners.items() if len(v) > 1} == {}


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
