"""The declared public surface: every name in an ``__all__`` exists."""

import importlib
import pkgutil

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

