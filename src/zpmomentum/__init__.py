"""Zero-point electromagnetic momentum in bianisotropic media.

Computes the radial constants behind the second-order Born momentum of the
quantized field around a small sphere, the closed-form momentum and drift
predictions that follow, and the moving point-dipole mass shift, with
numerical cross-checks for every closed form.

The package re-exports the public names of its eight layer modules; each
module's ``__all__`` is the one declaration of its surface.  The layers load
on first use: importing the package alone loads none of them, nor numpy.  A
name loads the layers of ``_LAYERS`` in order up to the one that declares
it; ``special_functions``, the one layer that imports numpy, comes last, so
no closed-form name loads numpy.  ``__all__`` and ``dir()`` load all eight.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("base", "units_materials", "contour_frequency",
           "oscillatory_integrals", "tensor_assembly", "point_dipole",
           "predictions", "special_functions")


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    layers = (importlib.import_module(f"{__name__}.{layer}")
              for layer in _LAYERS)
    if name == "__all__":
        return ["__version__", *(n for module in layers for n in module.__all__)]
    # private and dunder probes never load the layers
    for module in () if name.startswith("_") else layers:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
