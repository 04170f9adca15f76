"""Command-line front end: constants, cross-checks, and physical predictions.

Every subcommand assembles a RunReport (command, resolved inputs, result rows,
warnings, version) and renders it as text, JSON, or CSV.  Result rows always
carry name/value/error/method so the CSV stays rectangular; JSON adds
row-specific extras.  Exit codes: 0 success, 2 input error (any ValueError
or FileNotFoundError), 3 numerical failure (any ArithmeticError: no
convergence, or a float overflow, division by zero or invalid operation).
All physical inputs are SI at this boundary; conversion to the internal
Gaussian system happens behind the API calls.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .units_materials import (CONSTANTS, FieldConfig, MaterialSpec, SphereSpec,
                              material_from_json, preset_path, to_gaussian)
from .contour_frequency import ORACLE_EPSILON_RANGE, compare
from .oscillatory_integrals import (DEFAULT_SCHEDULE, TRIG_NAMES,
                                    eval_bruteforce, eval_trig)
from .tensor_assembly import ChiTensor, eta, eta_consistency
from .point_dipole import (DipoleSpec, mass_shift as dipole_mass_shift,
                           spectral_integral_quadrature,
                           spectral_integral_target)
from .predictions import (empty_vacuum_momentum, first_born, magneto_chiral,
                          me_sphere_velocity, moving_sphere)

FREQ_CHECK_SEED = 20260823  # fixed: reports must be deterministic run to run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


@dataclass
class RunReport:
    """Everything one invocation produced, in renderable form."""

    command: str
    inputs: dict
    results: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, error: float = 0.0,
            method: str = "closed_form", **extra) -> None:
        # adding 0.0 turns -0.0 into 0.0, so no report prints a signed zero
        value, error = float(value) + 0.0, float(error)
        if not (math.isfinite(value) and math.isfinite(error)):
            raise FloatingPointError(
                f"{name} is not finite: {value!r} (err {error!r})")
        row = {"name": name, "value": value, "error": error,
               "method": method}
        row.update(extra)
        self.results.append(row)

    def to_json(self) -> str:
        payload = {"command": self.command, "inputs": self.inputs,
                   "results": self.results, "warnings": self.warnings,
                   "version": __version__}
        return json.dumps(payload, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "value", "error", "method"])
        for row in self.results:
            writer.writerow([row["name"], repr(row["value"]),
                             repr(row["error"]), row["method"]])
        return buf.getvalue().rstrip("\n")

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"version: {__version__}"]
        for key, val in self.inputs.items():
            lines.append(f"input {key} = {val}")
        width = max((len(r["name"]) for r in self.results), default=0)
        for row in self.results:
            # repr round-trips exactly, so text and JSON report identical numbers
            lines.append(f"{row['name']:<{width}}  {row['value']!r}"
                         f"  (err {row['error']:.2e}, {row['method']})")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    vec = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"vector components must be finite, got {text!r}")
    return vec


def _parse_schedule(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _resolve_material(spec: str) -> tuple[MaterialSpec, str]:
    from pathlib import Path
    p = Path(spec)
    if p.is_file():
        return material_from_json(p), str(p)
    preset = preset_path(spec)
    return material_from_json(preset), str(preset)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpmomentum",
        description="Zero-point electromagnetic momentum calculator")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="radial constants by both routes")
    _common_flags(p)
    p.add_argument("--eps-schedule", type=_parse_schedule,
                   default=DEFAULT_SCHEDULE, metavar="E1,E2,...",
                   help="regulator schedule for the quadrature route "
                        "(three to five values)")

    p = sub.add_parser("eta", help="the eta constant and its consistency check")
    _common_flags(p)

    p = sub.add_parser("freq-check",
                       help="frequency contour closed forms vs numeric oracle")
    _common_flags(p)
    p.add_argument("--tol", type=float, default=1e-5,
                   help="largest accepted relative deviation")
    p.add_argument("--pairs", type=int, default=20,
                   help="number of random wavenumber pairs")
    p.add_argument("--seed", type=int, default=FREQ_CHECK_SEED)
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="base regulator for the oracle")

    p = sub.add_parser("dipole", help="moving point-dipole mass shift")
    _common_flags(p)
    p.add_argument("--alpha", type=float, required=True,
                   help="bare polarizability volume, m^3")
    p.add_argument("--alpha0", type=float, required=True,
                   help="regularized static polarizability, m^3")
    p.add_argument("--gamma", type=float, required=True,
                   help="transverse regularization length, m")
    p.add_argument("--hbar-omega0-eV", type=float, default=None,
                   help="optional cross-check of the derived resonance energy")

    p = sub.add_parser("predict", help="physical predictions for spheres")
    psub = p.add_subparsers(dest="model", required=True)

    def sphere_flags(q):
        _common_flags(q)
        q.add_argument("--material", default="generic_dielectric",
                       help="material JSON path or bundled preset name")
        q.add_argument("--a-um", type=float, required=True,
                       help="sphere radius in micrometers")

    q = psub.add_parser("me-sphere", help="magneto-electric sphere drift")
    sphere_flags(q)
    q.add_argument("--e0-dir", type=_parse_vec3, default="1,0,0",
                   help="static E-field orientation (any length, normalized); "
                        "write a negative first component as --e0-dir=-1,0,0")
    q.add_argument("--b0-dir", type=_parse_vec3, default="0,1,0",
                   help="static B-field orientation; write a negative first "
                        "component as --b0-dir=-1,0,0")

    q = psub.add_parser("moving-sphere", help="moving dielectric sphere")
    sphere_flags(q)
    q.add_argument("--v", type=_parse_vec3, required=True,
                   help="velocity vector, m/s; write a negative first "
                        "component as --v=-1,0,0")

    q = psub.add_parser("magneto-chiral", help="magneto-chiral sphere")
    sphere_flags(q)
    q.add_argument("--b", type=_parse_vec3, required=True,
                   help="static magnetic field, tesla; write a negative "
                        "first component as --b=-1,0,0")

    q = psub.add_parser("feigel", help="hard-cutoff lowest-order estimate")
    sphere_flags(q)
    q.add_argument("--lambda-cut-nm", type=float, required=True,
                   help="cutoff wavelength in nanometers")
    q.add_argument("--chi-s0", type=float, default=None,
                   help="override the cross-coupling scale (default: material "
                        "me_coupling)")
    q.add_argument("--rho", type=float, default=None,
                   help="override mass density, kg/m^3")
    q.add_argument("--mu", type=float, default=1.0,
                   help="relative permeability in the prefactor")
    q.add_argument("--mode", choices=("cutoff", "dimensional"),
                   default="cutoff")

    p = sub.add_parser("empty-vacuum", help="the control case: exactly zero")
    _common_flags(p)

    return parser


# --- subcommand handlers ---------------------------------------------------

def _cmd_constants(args) -> tuple[RunReport, int]:
    schedule = args.eps_schedule
    report = RunReport("constants", {"eps_schedule": list(schedule)})
    trig = {}
    for name in TRIG_NAMES:
        res = eval_trig(name)
        trig[name] = res.value
        report.add(name, res.value, res.error_estimate, res.method)
    brute = {}
    for name in ("I0", "I1", "A", "C", "D", "E"):
        res = eval_bruteforce(name, schedule)
        brute[name] = res.value
        report.add(name, res.value, res.error_estimate, res.method,
                   regulator_schedule=list(res.regulator_schedule))
    eta_val = eta()
    report.add("eta", eta_val, 0.0, "exact")

    for name in ("I0", "I1", "A", "C"):
        if math.copysign(1.0, trig[name]) != math.copysign(1.0, brute[name]):
            report.warnings.append(
                f"{name}: trig and quadrature routes disagree in sign")
    if trig["I0"] < 0:
        report.warnings.append(
            "I0 evaluates negative on both routes; the reference magnitude "
            "0.589 is printed with a positive sign")
    e_trig = trig["E1"] + trig["E2"] + trig["E3"]
    rel_e = abs(brute["E"] - e_trig) / abs(e_trig)
    if rel_e > 0.05:
        report.warnings.append(
            f"E: quadrature of the defining kernel gives {brute['E']:.4f} "
            f"but the trig pieces sum to {e_trig:.4f} ({rel_e:.1%} apart); "
            "the gap is E1, whose trig form integrates "
            "3 p^3 q^3 j1(p) j1(q)/(p+q) = 21pi/8 where the defining kernel's "
            "isotropic part is 3 p^2 q^2 j1(p) j1(q)/(p+q) = 15pi/8; "
            "the trig sum is used downstream")
    if eta_val < 0:
        report.warnings.append(
            "eta evaluates negative; the reference value 0.007909 is quoted "
            "positive")
    return report, EXIT_OK


def _cmd_eta(args) -> tuple[RunReport, int]:
    rep = eta_consistency()
    report = RunReport("eta", {"eta_reference": rep.eta_reference})
    report.add("eta", rep.eta_quadrature, 0.0, "exact")
    report.add("eta_reference", rep.eta_reference, 0.0, "reference")
    report.add("D_implied", rep.d_implied, 0.0, "reference")
    report.add("D_quadrature", rep.d_quadrature, 0.0, "exact")
    report.add("D_ratio", rep.ratio, 0.0, "derived")
    report.warnings.append(
        f"D implied by the reference eta ({rep.d_implied:.2f}) differs from "
        f"the computed value ({rep.d_quadrature:.4f}) by a factor "
        f"{rep.ratio:.0f}; the reference eta does not pin D")
    if rep.eta_quadrature < 0:
        report.warnings.append(
            "computed eta is negative; the reference value is quoted positive")
    return report, EXIT_OK


def _cmd_freq_check(args) -> tuple[RunReport, int]:
    if args.pairs < 0:
        raise ValueError(f"--pairs must be >= 0, got {args.pairs}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    lo, hi = ORACLE_EPSILON_RANGE
    if not (lo <= args.epsilon <= hi):
        raise ValueError(f"--epsilon must lie in [{lo:g}, {hi:g}], "
                         f"got {args.epsilon!r}")
    rng = np.random.default_rng(args.seed)
    pairs = [(1.0, 1.0), (2.0, 1.0), (0.1, 10.0)]
    pairs += [tuple(map(float, 10.0 ** rng.uniform(-1.0, 1.0, 2)))
              for _ in range(args.pairs)]
    report = RunReport("freq-check", {"pairs": len(pairs), "seed": args.seed,
                                      "epsilon": args.epsilon, "tol": args.tol})
    worst = 0.0
    for k, kp in pairs:
        for kind in ("transverse", "one_longitudinal"):
            res = compare(kind, k, kp, args.epsilon)
            worst = max(worst, res.rel_error)
            report.add(kind, res.numeric.imag,
                       abs(res.numeric - res.closed_form),
                       "regulated_quadrature", k=k, kp=kp,
                       closed_form_imag=res.closed_form.imag,
                       rel_error=res.rel_error)
    report.add("worst_rel_error", worst, 0.0, "derived")
    if worst > args.tol:
        report.warnings.append(
            f"oracle deviates from closed form by {worst:.2e} (> {args.tol:.0e})")
        return report, EXIT_NUMERICAL
    return report, EXIT_OK


def _cmd_dipole(args) -> tuple[RunReport, int]:
    spec = DipoleSpec(alpha=to_gaussian(args.alpha, "volume"),
                      alpha0=to_gaussian(args.alpha0, "volume"),
                      gamma=to_gaussian(args.gamma, "length"))
    hbar_omega0_ev = (CONSTANTS.hbar_si * spec.omega0 / CONSTANTS.ev_in_joule)
    if args.hbar_omega0_eV is not None:
        given = args.hbar_omega0_eV
        if not abs(given - hbar_omega0_ev) <= 1e-6 * abs(hbar_omega0_ev):
            raise ValueError(
                f"--hbar-omega0-eV = {given} is inconsistent with the value "
                f"{hbar_omega0_ev:.9g} eV derived from --alpha0/--gamma")
    report = RunReport("dipole", {"alpha_m3": args.alpha,
                                  "alpha0_m3": args.alpha0,
                                  "gamma_m": args.gamma})
    report.add("omega0", spec.omega0, 0.0, "derived")
    report.add("hbar_omega0_eV", hbar_omega0_ev, 0.0, "derived")
    report.add("damping_ratio", spec.damping_ratio, 0.0, "derived")
    report.add("alpha0_over_alpha", spec.alpha0 / spec.alpha, 0.0, "derived")
    shift = dipole_mass_shift(spec)
    report.add("mass_shift_kg", shift, 0.0, "closed_form")
    report.add("mass_shift_electron_masses",
               shift / CONSTANTS.electron_mass_si, 0.0, "derived")
    j_quad = spectral_integral_quadrature(spec)
    j_target = spectral_integral_target(spec)
    rel = abs(j_quad - j_target) / abs(j_target)
    report.add("spectral_integral", j_quad, 0.0, "regulated_quadrature")
    report.add("spectral_integral_target", j_target, 0.0, "closed_form")
    report.add("spectral_rel_deviation", rel, 0.0, "derived")
    if spec.damping_ratio > 0.05:
        report.warnings.append(
            f"damping_ratio = {spec.damping_ratio:.3g}: broad resonance, the "
            "narrow-resonance sum rule deviates at the damping_ratio/pi level")
    return report, EXIT_OK


def _prediction_rows(report: RunReport, pred) -> None:
    for axis, p_val, v_val in zip("xyz", pred.momentum, pred.velocity):
        report.add(f"momentum_{axis}_kg_m_s", p_val, 0.0, "closed_form")
        report.add(f"velocity_{axis}_m_s", v_val, 0.0, "closed_form")
    report.add("speed_m_s", float(np.linalg.norm(pred.velocity)), 0.0,
               "derived")
    report.add("mass_shift_kg", pred.mass_shift, 0.0, "closed_form")
    report.warnings.extend(pred.inputs_digest["notes"])
    report.inputs["digest"] = pred.inputs_digest


def _cmd_predict(args) -> tuple[RunReport, int]:
    material, material_src = _resolve_material(args.material)
    radius = args.a_um * 1e-6
    inputs = {"material": material_src, "radius_m": radius}
    if args.model == "feigel":
        # feigel's own flags are reported ahead of the sphere's radius and mass
        for flag, val in (("--lambda-cut-nm", args.lambda_cut_nm),
                          ("--mu", args.mu)):
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{flag} must be positive and finite, "
                                 f"got {val!r}")
        chi_scale = (args.chi_s0 if args.chi_s0 is not None
                     else material.me_coupling)
        rho = args.rho if args.rho is not None else material.mass_density
        material = MaterialSpec(epsilon=material.epsilon, mass_density=rho,
                                me_coupling=chi_scale)
    sphere = SphereSpec(radius=radius, material=material)
    if args.model == "me-sphere":
        pred = me_sphere_velocity(sphere, FieldConfig(e0=args.e0_dir,
                                                      b0=args.b0_dir))
    elif args.model == "moving-sphere":
        pred = moving_sphere(sphere, args.v)
        inputs["v_m_s"] = list(map(float, args.v))
    elif args.model == "magneto-chiral":
        pred = magneto_chiral(sphere, args.b)
        inputs["b_tesla"] = list(map(float, args.b))
    else:  # feigel; argparse restricts the choices
        chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                         chi_scale)
        k_cut = 2.0 * math.pi / (args.lambda_cut_nm * 1e-9)
        pred = first_born(sphere, chi, mode=args.mode,
                          k_cut=k_cut if args.mode == "cutoff" else None,
                          mu=args.mu)
        inputs.update({"k_cut": k_cut, "chi_s0": chi_scale, "rho": rho,
                       "mu": args.mu, "mode": args.mode})
    report = RunReport(f"predict {args.model}", inputs)
    _prediction_rows(report, pred)
    return report, EXIT_OK


def _cmd_empty_vacuum(args) -> tuple[RunReport, int]:
    report = RunReport("empty-vacuum", {})
    mom = empty_vacuum_momentum()
    for axis, val in zip("xyz", mom):
        report.add(f"momentum_{axis}_kg_m_s", val, 0.0, "exact")
    return report, EXIT_OK


_HANDLERS = {
    "constants": _cmd_constants,
    "eta": _cmd_eta,
    "freq-check": _cmd_freq_check,
    "dipole": _cmd_dipole,
    "predict": _cmd_predict,
    "empty-vacuum": _cmd_empty_vacuum,
}


def run(argv=None) -> int:
    """Parse argv, dispatch, print the rendered report; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    command = f"{args.subcommand} {getattr(args, 'model', '')}".rstrip()
    try:
        # Overflow, division by zero and invalid operations in numpy raise
        # FloatingPointError here instead of warning and carrying inf or nan
        # on; underflow stays silent, since the exponential sum relies on it.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report, code = handler(args)
            output = report.render(args.format)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(output)
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
