"""Command-line front end: constants, cross-checks, and physical predictions.

Every subcommand assembles a RunReport (command, resolved inputs, result rows,
warnings, version) and renders it as text, JSON, or CSV.  Result rows always
carry name/value/error/method so the CSV stays rectangular; JSON adds
row-specific extras.  Exit codes: 0 success, 2 input error (any ValueError
or FileNotFoundError) or a report that cannot be written, 3 numerical
failure (any ArithmeticError: no convergence, or a float overflow, division
by zero or invalid operation).
Inputs and rows are SI, except the radius in micrometers, the cutoff
wavelength in nanometers, hbar omega0 in eV and the dipole's two
spectral-integral rows, printed in cm^2.  Each handler imports the layers it
runs, so a command loads no module it does not use; only freq-check loads
numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path

from . import __version__

FREQ_CHECK_SEED = 20260823  # fixed: reports must be deterministic run to run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class RunReport:
    """Everything one invocation produced, in renderable form."""

    def __init__(self, command: str, inputs: dict) -> None:
        self.command = command
        self.inputs = inputs
        self.results: list[dict] = []
        self.warnings: list[str] = []

    def add(self, name: str, value: float, error: float = 0.0,
            method: str = "closed_form", **extra) -> None:
        # adding 0.0 turns -0.0 into 0.0, so no report prints a signed zero
        value, error = float(value) + 0.0, float(error)
        if not (math.isfinite(value) and math.isfinite(error)):
            raise FloatingPointError(
                f"{name} is not finite: {value!r} (err {error!r})")
        self.results.append({"name": name, "value": value, "error": error,
                             "method": method, **extra})

    def to_json(self) -> str:
        payload = {"command": self.command, "inputs": self.inputs,
                   "results": self.results, "warnings": self.warnings,
                   "version": __version__}
        return json.dumps(payload, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        import csv  # only --format csv pays for the import
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
        return {"json": self.to_json, "csv": self.to_csv}.get(
            fmt, self.to_text)()


def _parse_vec3(text: str) -> tuple:
    from .base import _as_vec3
    return _as_vec3([float(p) for p in text.split(",")], "vector")


def _parse_schedule(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _resolve_material(spec: str):
    from .units_materials import material_from_json, preset_path
    path = Path(spec) if Path(spec).is_file() else preset_path(spec)
    return material_from_json(path), str(path)


def _command(sub, name: str, handler, summary: str) -> argparse.ArgumentParser:
    """A subcommand parser that runs handler and takes --format."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(handler=handler)
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpmomentum",
        description="Zero-point electromagnetic momentum calculator")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _command(sub, "constants", _cmd_constants,
                 "radial constants by both routes")
    p.add_argument("--eps-schedule", type=_parse_schedule,
                   metavar="E1,E2,...",
                   help="regulator schedule for the quadrature route "
                        "(three to five values in [0.003125, 0.2], each at "
                        "most half the one before; default: "
                        "oscillatory_integrals.DEFAULT_SCHEDULE)")

    _command(sub, "eta", _cmd_eta,
             "the eta constant and its consistency check")

    p = _command(sub, "freq-check", _cmd_freq_check,
                 "frequency contour closed forms vs numeric oracle")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="largest accepted relative deviation")
    p.add_argument("--pairs", type=int, default=20,
                   help="number of random wavenumber pairs")
    p.add_argument("--seed", type=int, default=FREQ_CHECK_SEED)
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="largest oracle regulator; each pair runs at "
                        "min(this, 0.05 x rescaled pole gap).  Above ~1e-2 "
                        "the default --tol is not met (2.7e-4 at 0.1): exit "
                        "3 with the report")

    p = _command(sub, "dipole", _cmd_dipole, "moving point-dipole mass shift")
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

    def sphere_model(name, summary):
        q = _command(psub, name, _cmd_predict, summary)
        q.add_argument("--material", default="generic_dielectric",
                       help="material JSON path or bundled preset name")
        q.add_argument("--a-um", type=float, required=True,
                       help="sphere radius in micrometers")
        return q

    q = sphere_model("me-sphere", "magneto-electric sphere drift")
    q.add_argument("--e0-dir", type=_parse_vec3, default="1,0,0",
                   help="static E-field orientation (any length, normalized); "
                        "write a negative first component as --e0-dir=-1,0,0")
    q.add_argument("--b0-dir", type=_parse_vec3, default="0,1,0",
                   help="static B-field orientation; write a negative first "
                        "component as --b0-dir=-1,0,0")

    q = sphere_model("moving-sphere", "moving dielectric sphere")
    q.add_argument("--v", type=_parse_vec3, required=True,
                   help="velocity vector, m/s; write a negative first "
                        "component as --v=-1,0,0")

    q = sphere_model("magneto-chiral", "magneto-chiral sphere")
    q.add_argument("--b", type=_parse_vec3, required=True,
                   help="static magnetic field, tesla; write a negative "
                        "first component as --b=-1,0,0")

    q = sphere_model("feigel", "hard-cutoff lowest-order estimate")
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

    _command(sub, "empty-vacuum", _cmd_empty_vacuum,
             "the control case: exactly zero")

    return parser


# --- subcommand handlers ---------------------------------------------------

def _cmd_constants(args) -> tuple[RunReport, int]:
    from .oscillatory_integrals import (_KERNELS, DEFAULT_SCHEDULE, TRIG_NAMES,
                                        eval_bruteforce, eval_trig)
    from .tensor_assembly import _ETA_SIGN_NOTE, REFERENCE_MAGNITUDES, eta
    schedule = args.eps_schedule or DEFAULT_SCHEDULE
    report = RunReport("constants", {"eps_schedule": list(schedule)})
    trig = {}
    for name in TRIG_NAMES:
        res = eval_trig(name)
        trig[name] = res.value
        report.add(name, res.value, res.error_estimate, res.method)
    brute = {}
    for name in _KERNELS:
        res = eval_bruteforce(name, schedule)
        brute[name] = res.value
        report.add(name, res.value, res.error_estimate, res.method,
                   regulator_schedule=list(schedule))
    eta_val = eta()
    report.add("eta", eta_val, 0.0, "exact")

    for name in (name for name in TRIG_NAMES if name in _KERNELS):
        if math.copysign(1.0, trig[name]) != math.copysign(1.0, brute[name]):
            report.warnings.append(
                f"{name}: trig and quadrature routes disagree in sign")
    if trig["I0"] < 0:
        report.warnings.append(
            "I0 evaluates negative on both routes; the reference magnitude "
            f"{REFERENCE_MAGNITUDES['I0']} is printed with a positive sign")
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
        report.warnings.append(_ETA_SIGN_NOTE)
    return report, EXIT_OK


def _cmd_eta(args) -> tuple[RunReport, int]:
    from .tensor_assembly import _ETA_SIGN_NOTE, eta_consistency
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
        f"{rep.ratio:.0f} with the reference signs as printed; with the signs "
        "the package computes (I0 and eta negative) it is "
        f"{rep.d_implied_computed_signs:.4f}, "
        f"{rep.ratio_computed_signs:.3f} times the computed value")
    if rep.eta_quadrature < 0:
        report.warnings.append(_ETA_SIGN_NOTE)
    return report, EXIT_OK


def freq_check_pairs(seed: int, n: int) -> list[tuple[float, float]]:
    """The three fixed (k, kp) pairs, then n drawn log-uniformly in [0.1, 10]."""
    import numpy as np
    rng = np.random.default_rng(seed)
    return [(1.0, 1.0), (2.0, 1.0), (0.1, 10.0)] + [
        tuple(map(float, 10.0 ** rng.uniform(-1.0, 1.0, 2))) for _ in range(n)]


def _cmd_freq_check(args) -> tuple[RunReport, int]:
    import numpy as np
    from .contour_frequency import (KINDS, ORACLE_EPSILON_RANGE, compare,
                                    freq_closed_form, resolving_epsilon)
    for flag, val in (("--pairs", args.pairs), ("--seed", args.seed)):
        if val < 0:
            raise ValueError(f"{flag} must be >= 0, got {val}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    lo, hi = ORACLE_EPSILON_RANGE
    if not (lo <= args.epsilon <= hi):
        raise ValueError(f"--epsilon must lie in [{lo:g}, {hi:g}], "
                         f"got {args.epsilon!r}")
    # numpy raises FloatingPointError rather than carry inf or nan on
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        pairs = freq_check_pairs(args.seed, args.pairs)
        report = RunReport("freq-check", {
            "pairs": len(pairs), "seed": args.seed, "epsilon": args.epsilon,
            "tol": args.tol})
        worst = 0.0
        for k, kp in pairs:
            epsilon = resolving_epsilon(k, kp, args.epsilon)
            for kind in KINDS:
                res = compare(kind, k, kp, epsilon)
                closed = freq_closed_form(kind, k, kp)
                rel_error = res.error_estimate / abs(closed)
                worst = max(worst, rel_error)
                report.add(kind, res.value.imag, res.error_estimate,
                           res.method, k=k, kp=kp, closed_form_imag=closed.imag,
                           rel_error=rel_error, regulator_epsilon=epsilon)
    report.add("worst_rel_error", worst, 0.0, "derived")
    if worst > args.tol:
        report.warnings.append(
            f"oracle deviates from closed form by {worst:.2e} (> {args.tol:.0e})")
        return report, EXIT_NUMERICAL
    return report, EXIT_OK


def _cmd_dipole(args) -> tuple[RunReport, int]:
    from .point_dipole import (DipoleSpec, mass_shift, spectral_integral_exact,
                               spectral_integral_target)
    from .base import CONSTANTS
    spec = DipoleSpec(alpha=args.alpha, alpha0=args.alpha0, gamma=args.gamma)
    hbar_omega0_ev = (CONSTANTS.hbar_si * spec.omega0 / CONSTANTS.ev_in_joule)
    if args.hbar_omega0_eV is not None:
        given = args.hbar_omega0_eV
        if not math.isfinite(given):
            raise ValueError(f"--hbar-omega0-eV must be finite, got {given!r}")
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
    shift = mass_shift(spec)
    report.add("mass_shift_kg", shift, 0.0, "closed_form")
    report.add("mass_shift_electron_masses",
               shift / CONSTANTS.electron_mass_si, 0.0, "derived")
    # J in cm^2 (1e4 cm^2 per m^2), the unit the report has always printed
    j = spectral_integral_exact(spec) * 1e4
    j_target = spectral_integral_target(spec) * 1e4
    rel = abs(j - j_target) / abs(j_target)
    report.add("spectral_integral", j, 0.0, "closed_form")
    report.add("spectral_integral_target", j_target, 0.0, "closed_form")
    report.add("spectral_rel_deviation", rel, 0.0, "derived")
    if spec.damping_ratio > 0.05:
        report.warnings.append(
            f"damping_ratio = {spec.damping_ratio:.3g}: broad resonance, the "
            "narrow-resonance sum rule deviates at the damping_ratio/pi level")
    return report, EXIT_OK


def _prediction_rows(report: RunReport, pred) -> None:
    from .base import _norm
    for axis, p_val, v_val in zip("xyz", pred.momentum, pred.velocity):
        report.add(f"momentum_{axis}_kg_m_s", p_val, 0.0, "closed_form")
        report.add(f"velocity_{axis}_m_s", v_val, 0.0, "closed_form")
    report.add("speed_m_s", _norm(pred.velocity), 0.0, "derived")
    report.add("mass_shift_kg", pred.mass_shift, 0.0, "closed_form")
    report.warnings.extend(pred.inputs_digest["notes"])
    report.inputs["digest"] = pred.inputs_digest


def _cmd_predict(args) -> tuple[RunReport, int]:
    from .predictions import (first_born, magneto_chiral, me_sphere_velocity,
                              moving_sphere)
    from .tensor_assembly import ChiTensor
    from .units_materials import FieldConfig, MaterialSpec, SphereSpec
    material, material_src = _resolve_material(args.material)
    # the flags are checked here, so that an error names the flag and the
    # value typed; the records check the converted values for library callers
    positive = {"--a-um": args.a_um}
    if args.model == "feigel":
        chi_scale = (args.chi_s0 if args.chi_s0 is not None
                     else material.me_coupling)
        rho = args.rho if args.rho is not None else material.mass_density
        positive.update({"--lambda-cut-nm": args.lambda_cut_nm,
                         "--mu": args.mu, "--rho": rho})
        if not math.isfinite(chi_scale):  # the material's own is finite
            raise ValueError(f"--chi-s0 must be finite, got {chi_scale!r}")
    for flag, val in positive.items():
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{flag} must be positive and finite, got {val!r}")
    radius = args.a_um * 1e-6
    inputs = {"material": material_src, "radius_m": radius}
    if args.model == "feigel":
        material = MaterialSpec(epsilon=material.epsilon, mass_density=rho)
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
    from .predictions import empty_vacuum_momentum
    report = RunReport("empty-vacuum", {})
    for axis, val in zip("xyz", empty_vacuum_momentum()):
        report.add(f"momentum_{axis}_kg_m_s", val, 0.0, "exact")
    return report, EXIT_OK


def main(argv=None) -> int:
    """Parse argv, run its subcommand, print the rendered report (or the
    help); returns the exit code."""
    import contextlib
    help_text = io.StringIO()  # argparse drops a failed write of its own
    try:
        with contextlib.redirect_stdout(help_text):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed --help, or refused argv
        if exc.code != 0:
            raise
        output, code = help_text.getvalue(), EXIT_OK
    else:
        command = f"{args.subcommand} {getattr(args, 'model', '')}".rstrip()
        try:
            report, code = args.handler(args)
            output = report.render(args.format) + "\n"
        except (ValueError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ArithmeticError as exc:
            print(f"numerical failure: {command}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        import os  # as the signal docs advise: the unwritten bytes stay
        devnull = os.open(os.devnull, os.O_WRONLY)  # buffered, so the
        os.dup2(devnull, sys.stdout.fileno())  # flush at exit must not fail
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code
