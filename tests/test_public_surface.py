"""The declared public surface: every name in an ``__all__`` exists, the
package needs nothing beyond numpy, and it loads each layer only when a name,
a command or a library call needs it; every command but freq-check, and every
library call but the dipole quadrature, loads no numpy."""

import importlib
import json
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
    # the package list is derived from the eight layer lists, so a name a
    # module declares is reachable from the package, as the same object
    from zpmomentum import (TRIG_NAMES, material_from_json,  # noqa
                            resolving_epsilon)
    assert len(LAYERS) == 8
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


# One fresh interpreter reports what each step loads: the bare package
# import, each command or library call with the zpmomentum modules and the
# STDLIB modules unloaded before it (and the steps after which numpy or
# numpy.polynomial is loaded), then every module (for scipy), the star
# import and dir().  numpy cannot be unloaded, so the steps without it run
# first.  A step is a command's argv or, for a library call, Python source.
STDLIB = ("csv", "dataclasses", "fractions", "decimal")
PROBE = """
import contextlib, io, json, sys
def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))
import zpmomentum
stdlib = json.loads(sys.argv[3])
report = {"import": loaded("zpmomentum.")
          + ["numpy"] * ("numpy" in sys.modules), "polynomial": [],
          "numpy": [], "stdlib": {}}
for key, argv in json.loads(sys.argv[1]):
    for name in loaded("zpmomentum") + [m for m in stdlib if m in sys.modules]:
        del sys.modules[name]
    if isinstance(argv, str):
        exec(argv, {})
    else:
        from zpmomentum.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    report[key] = [m.split(".")[1] for m in loaded("zpmomentum.")]
    report["stdlib"][key] = [m for m in stdlib if m in sys.modules]
    for module, name in (("numpy", "numpy"), ("numpy.polynomial",
                                              "polynomial")):
        if module in sys.modules:
            report[name].append(key)
import importlib, zpmomentum
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
report["scipy"] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
star = {}
exec("from zpmomentum import *", star)
report["star"] = sorted(set(star) - {"__builtins__"})
report["all"] = sorted(zpmomentum.__all__)
report["dir"] = dir(zpmomentum)
print(json.dumps(report))
"""

# Two library calls, as Python source, each imported from its own layers:
# the tensor path and the moving dipole's t-matrix and spectral density run
# on tuples, and only the quadrature of J loads numpy.
LIBRARY_CALLS = {
    "second_born_momentum, closed_form_p_rad, t_matrix, p_rad_spectral": """
from zpmomentum.point_dipole import DipoleSpec, p_rad_spectral, t_matrix
from zpmomentum.tensor_assembly import (ChiTensor, closed_form_p_rad,
                                        second_born_momentum)
from zpmomentum.units_materials import MaterialSpec, SphereSpec
sphere = SphereSpec(1e-6, MaterialSpec(1.3, 2000.0))
chi = ChiTensor.magneto_electric((1, 0, 0), (0, 1, 0), 1e-4)
second_born_momentum(sphere, chi)
closed_form_p_rad(sphere, chi)
spec = DipoleSpec(1.0, 1.0, 1e-4)
t_matrix(spec, spec.omega0, (1, 0, 0), (0, 1, 0), (1, 0, 0))
p_rad_spectral(spec, spec.omega0, (1, 0, 0))
""",
    "spectral_integral_quadrature": """
from zpmomentum.point_dipole import DipoleSpec, spectral_integral_quadrature
spectral_integral_quadrature(DipoleSpec(1.0, 1.0, 1e-4))
""",
}
TUPLE_CALLS, QUADRATURE = LIBRARY_CALLS

# The layer modules each step loads, cli and its own layers included:
# predict, eta and empty-vacuum load neither special_functions (nor numpy)
# nor the quadrature routes nor the frequency oracle nor the dipole, dipole
# loads none of these but itself, constants loads neither special_functions
# (nor numpy) nor the last two nor the predictions, and freq-check loads no
# prediction.  The library calls load no cli.
PREDICT = ["base", "cli", "predictions", "tensor_assembly", "units_materials"]
NUMPY_FREE = {
    "predict me-sphere --a-um 1": PREDICT,
    "predict moving-sphere --a-um 1 --v 1,0,0": PREDICT,
    "predict magneto-chiral --material MC_MATERIAL --a-um 1 --b 0,0,1":
        PREDICT,
    "predict feigel --a-um 1 --lambda-cut-nm 100 --chi-s0 1e-11": PREDICT,
    "eta": ["base", "cli", "tensor_assembly"],
    "empty-vacuum --format csv": PREDICT,
    "dipole --alpha 1 --alpha0 1 --gamma 1": ["base", "cli", "point_dipole"],
    "constants": ["base", "cli", "oscillatory_integrals", "tensor_assembly"],
    TUPLE_CALLS: ["base", "point_dipole", "tensor_assembly", "units_materials"],
}
COMMAND_LAYERS = {
    **NUMPY_FREE,
    QUADRATURE: ["base", "point_dipole", "special_functions"],
    "freq-check --pairs 2": ["base", "cli", "contour_frequency",
                             "special_functions"],
}
MC_MATERIAL = str(Path(__file__).resolve().parent / "golden"
                  / "magneto_chiral_material.json")


@pytest.fixture(scope="module")
def probe():
    src = str(Path(zpmomentum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    commands = json.dumps([
        (key, LIBRARY_CALLS.get(key) or [
            MC_MATERIAL if a == "MC_MATERIAL" else a for a in key.split()])
        for key in COMMAND_LAYERS])
    out = subprocess.run([sys.executable, "-c", PROBE, commands,
                          json.dumps(MODULES), json.dumps(STDLIB)],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_loads_no_scipy(probe):
    # every module, the CLI included, imports numpy alone; scipy serves the
    # tests as an independent reference only
    assert probe["scipy"] == []


def test_package_import_loads_no_layer(probe):
    # the re-exports load on first use, so a bare import loads not even numpy
    assert probe["import"] == []


@pytest.mark.parametrize("argv", list(COMMAND_LAYERS))
def test_command_loads_only_its_layers(probe, argv):
    assert probe[argv] == COMMAND_LAYERS[argv]


def test_closed_form_commands_load_no_numpy(probe):
    # each runs before any numpy step, and the probe sees numpy once one of
    # those has run: the tensor path, t_matrix and p_rad_spectral load none,
    # and the dipole quadrature loads it, like a lint rule on the boundary
    assert probe["numpy"] == list(COMMAND_LAYERS)[len(NUMPY_FREE):]


def test_no_command_loads_dataclasses(probe):
    # the records derive from one small base, so no command pays for the
    # dataclass decorator
    assert [argv for argv, mods in probe["stdlib"].items()
            if "dataclasses" in mods] == []


def test_no_command_loads_fractions_or_decimal(probe):
    # the trig route integrates exactly in complex floats, so no command
    # pays for rational or decimal arithmetic
    assert [argv for argv, mods in probe["stdlib"].items()
            if {"fractions", "decimal"} & set(mods)] == []


def test_only_csv_output_loads_csv(probe):
    assert [argv for argv, mods in probe["stdlib"].items()
            if "csv" in mods] == ["empty-vacuum --format csv"]


def test_no_command_loads_numpy_polynomial(probe):
    # the Gauss-Legendre rule is built from numpy core, so no command pays
    # the import of numpy.polynomial
    assert probe["polynomial"] == []


def test_star_import_binds_exactly_all(probe):
    assert probe["star"] == probe["all"]


def test_dir_lists_every_export(probe):
    assert set(probe["all"]) <= set(probe["dir"])
