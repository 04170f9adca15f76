"""Traced calls into each layer of zpmomentum, one stage per fresh interpreter.

run.py starts this file as

    python bench/layers.py STAGE SPEC.json OUT.json

with PYTHONPATH pointing at the package.  Every public function of each
package module is wrapped in place (in every module that imported it), so a
call records a span: id, op, name, parent span, start and end, from
time.perf_counter.  Spans stay in memory and are written to OUT.json when the
stage ends.  Stages:

  layers      each layer on its own: Bessel functions on the finest grid,
              the trig route, the regulated passes, the tensor assembly, the
              me-sphere prediction, the frequency oracle on the pairs of one
              freq-check invocation, the dipole quadrature
  reconciled  one cold reconciled_constants()
  cli         cli.main(argv) on its first call, stdout captured
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import sys
import time
import tracemalloc

import numpy as np

import checks
from run import cli_freq_pairs
from zpmomentum import (cli, contour_frequency, oscillatory_integrals,
                        point_dipole, predictions, special_functions,
                        tensor_assembly, units_materials)

LAYERS = (special_functions, oscillatory_integrals, contour_frequency,
          tensor_assembly, point_dipole, predictions, units_materials)
PASS_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)
SMALL_REPS = 21  # calls under a millisecond: report the median of these
GRID_REPS = 5


class Tracer:
    """Spans kept in memory; op groups the spans of one measured operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def _open(self, name: str) -> dict:
        record = {"id": len(self.spans), "op": self._op, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict, end: float) -> None:
        self._stack.pop()
        record["end"] = end

    @contextlib.contextmanager
    def op(self, name: str):
        self._op += 1
        record = self._open("op:" + name)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            self._close(record, time.perf_counter())

    def wrap(self, name: str, fn):
        # the clock is read as close to the call as the wrapper allows, so
        # that a span of a microsecond call measures the call, not the tracer
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            record["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record, time.perf_counter())
        return traced


def install(tracer: Tracer) -> None:
    """Replace each public layer function, wherever it is bound, by a span."""
    originals = {}
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                originals[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    originals[id(cli.main)] = (cli.main, tracer.wrap("cli.main", cli.main))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "zpmomentum":
            continue
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


def panel_nodes(eps: float) -> np.ndarray:
    """The regulated pass's grid: panels of width pi/4 on [0, 50/eps], each
    with 8 Gauss-Legendre points."""
    pmax = 50.0 / eps
    edges = np.linspace(0.0, pmax, math.ceil(pmax / (math.pi / 4)) + 1)
    x, _ = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + 0.5 * np.diff(edges)[:, None] * x[None, :]).ravel()


def stage_layers(tracer: Tracer, spec: dict) -> dict:
    nodes = panel_nodes(PASS_SCHEDULE[-1])
    for _ in range(GRID_REPS):
        with tracer.op("bessel"):
            for order in (0, 1, 2):
                special_functions.sph_bessel_j(order, nodes)
    for _ in range(GRID_REPS):
        with tracer.op("trig"):
            for name in oscillatory_integrals.TRIG_NAMES:
                oscillatory_integrals.eval_trig(name)
    # the passes are cached per regulator, so the second call adds only the
    # finest one
    with tracer.op("passes_coarse"):
        oscillatory_integrals.eval_bruteforce("D", PASS_SCHEDULE[:3])
    tracemalloc.start()
    with tracer.op("pass_fine"):
        oscillatory_integrals.eval_bruteforce("D", PASS_SCHEDULE[1:])
    fine_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    constants = dict(checks.KERNEL_EXACT, E=checks.E_DOWNSTREAM)
    material = units_materials.MaterialSpec(epsilon=1.3, mass_density=2000.0,
                                            me_coupling=1e-4)
    sphere = units_materials.SphereSpec(radius=1e-6, material=material)
    chi = tensor_assembly.ChiTensor.magneto_electric((1, 0, 0), (0, 1, 0), 1e-4)
    fields = units_materials.FieldConfig(e0=(1.0, 0, 0), b0=(0, 1.0, 0))
    dipole = point_dipole.DipoleSpec(**spec["dipole"])
    for _ in range(SMALL_REPS):
        with tracer.op("eta"):
            tensor_assembly.eta(constants=constants)
        with tracer.op("second_born"):
            tensor_assembly.second_born_momentum(sphere, chi,
                                                 constants=constants)
        with tracer.op("me_sphere"):
            predictions.me_sphere_velocity(sphere, fields,
                                           eta_value=checks.ETA_EXACT)
        with tracer.op("dipole"):
            point_dipole.spectral_integral_quadrature(dipole)
    for k, kp in cli_freq_pairs(spec["freq_seed"]):
        for kind in contour_frequency.KINDS:
            with tracer.op("compare." + kind):
                contour_frequency.compare(kind, k, kp)
    return {"pass_nodes": [len(panel_nodes(e)) for e in PASS_SCHEDULE],
            "pass_fine_peak_bytes": fine_peak}


def stage_reconciled(tracer: Tracer, spec: dict) -> dict:
    with tracer.op("reconciled"):
        oscillatory_integrals.reconciled_constants()
    return {}


def stage_cli(tracer: Tracer, spec: dict) -> dict:
    out = io.StringIO()
    with tracer.op("cli"), contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    return {"exit": code, "stdout": out.getvalue()}


STAGES = {"layers": stage_layers, "reconciled": stage_reconciled,
          "cli": stage_cli}


def main(stage: str, spec_path: str, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    install(tracer)
    values = STAGES[stage](tracer, spec)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "values": values}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
