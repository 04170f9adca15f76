"""Zero-point electromagnetic momentum in bianisotropic media.

Computes the radial constants behind the second-order Born momentum of the
quantized field around a small sphere, the closed-form momentum and drift
predictions that follow, and the moving point-dipole mass shift, with
numerical cross-checks for every closed form.

The package re-exports the public names of its eight layer modules; each
module's ``__all__`` is the one declaration of its surface.  The layers load
on first use: importing the package alone loads none of them, nor numpy.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("base", "units_materials", "special_functions",
           "contour_frequency", "oscillatory_integrals", "tensor_assembly",
           "point_dipole", "predictions")


def _owners() -> dict:
    """Every re-exported name and the layer module that declares it; imports
    all eight layers."""
    modules = [importlib.import_module(f"{__name__}.{layer}")
               for layer in _LAYERS]
    return {name: module for module in modules for name in module.__all__}


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__", *_owners()]
    # private and dunder probes never load the layers
    owner = None if name.startswith("_") else _owners().get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(owner, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
