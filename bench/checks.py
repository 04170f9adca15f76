"""Output checks for the benchmark's operations.

Every check compares a report against numbers computed here, apart from the
program: exact rational multiples of pi for the radial constants, the closed
forms of each prediction written out from CODATA constants, and internal
relations a correct report must satisfy (velocity = momentum / mass, a
reported error bounding the reported deviation).  A check returns a list of
problems; an empty list means the report passed.

The exact constant table comes from the Laplace transforms
int_0^inf p^a j_m(p) e^{-tp} dp, which turn each regulated kernel into a 1-D
integral of a rational function (ROADMAP item 1).  E is listed twice: the
defining kernel integrates to 43 pi/8, while the program carries the trig
piece sum 49 pi/8 downstream, so eta = -29/(1152 pi).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import jsonschema

PI = math.pi
HBAR_SI = 1.054571817e-34
HBAR_G = 1.054571817e-27
C0_SI = 2.99792458e8
C0_G = 2.99792458e10
ELECTRON_MASS = 9.1093837015e-31
EV = 1.602176634e-19

TRIG_EXACT = {"I0": -3 * PI / 16, "I1": 21 * PI / 16, "A": 7 * PI / 16,
              "C": -9 * PI / 16, "E1": 21 * PI / 8, "E2": -35 * PI / 8,
              "E3": 63 * PI / 8}
KERNEL_EXACT = {"I0": -3 * PI / 16, "I1": 21 * PI / 16, "A": 7 * PI / 16,
                "C": -9 * PI / 16, "D": 3 * PI / 16, "E": 43 * PI / 8}
E_DOWNSTREAM = 49 * PI / 8
ETA_EXACT = (KERNEL_EXACT["I0"] - KERNEL_EXACT["I1"] + KERNEL_EXACT["C"] / 3
             - KERNEL_EXACT["A"] / 3 + KERNEL_EXACT["D"] / 3
             - E_DOWNSTREAM / 2) / (192 * PI ** 2)

# The regulated route agrees with the exact table to 1.3e-7 today.  The bound
# sits below 1e-6 so that a value moved by 1e-6 in either direction fails.
KERNEL_RTOL = 5e-7
ETA_RTOL = 1e-8
FREQ_RTOL = 1e-5
# Tolerance for values the program computes by the same closed form, in
# another order of floating-point operations.
ROUND_RTOL = 1e-12

REFERENCE_ETA = 0.007909
REFERENCE_MAGNITUDES = {"I0": 0.589, "I1": 4.123, "A": 1.374, "C": -1.767,
                        "E": 19.242}
MAGNETO_CHIRAL_COEFF = -0.005098


@functools.cache
def _schema(path: Path) -> dict:
    return json.loads(path.read_text())


def parse_report(text: str, schema_path: Path) -> dict:
    """Strict JSON (NaN and Infinity rejected) validated against the schema."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(text, parse_constant=reject)
    try:
        jsonschema.validate(report, _schema(schema_path))
    except jsonschema.ValidationError as exc:
        raise ValueError(f"schema: {exc.message}") from None
    return report


class _Rows:
    """Result rows by name, recording every comparison that fails."""

    def __init__(self, report: dict, command: str):
        self.problems: list[str] = []
        self.by_name = {}
        for row in report["results"]:
            self.by_name.setdefault(row["name"], row)
        if report["command"] != command:
            self.problems.append(
                f"command {report['command']!r}, expected {command!r}")

    def value(self, name: str) -> float:
        row = self.by_name.get(name)
        if row is None:
            self.problems.append(f"missing row {name}")
            return math.nan
        return row["value"]

    def near(self, name: str, expected: float, rtol: float,
             got: float | None = None) -> None:
        got = self.value(name) if got is None else got
        if not abs(got - expected) <= rtol * abs(expected):
            self.problems.append(
                f"{name} = {got!r}, expected {expected!r} (rtol {rtol:g})")

    def zero(self, name: str) -> None:
        got = self.value(name)
        if got != 0.0:
            self.problems.append(f"{name} = {got!r}, expected exactly 0")


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _sphere_rows(r: _Rows, p: dict, momentum, rtol: float,
                 shift: float | None) -> None:
    """Momentum against its closed form, then velocity, speed, mass shift."""
    radius = p["a_um"] * 1e-6
    mass = p["rho"] * 4.0 * PI * radius ** 3 / 3.0
    for axis, expected in zip("xyz", momentum):
        name = f"momentum_{axis}_kg_m_s"
        if expected == 0.0:
            r.zero(name)
        else:
            r.near(name, expected, rtol)
        got = r.value(name)
        if got == 0.0:
            r.zero(f"velocity_{axis}_m_s")
        else:
            r.near(f"velocity_{axis}_m_s", got / mass, ROUND_RTOL)
    reported_v = [r.value(f"velocity_{axis}_m_s") for axis in "xyz"]
    r.near("speed_m_s", math.sqrt(sum(x * x for x in reported_v)), ROUND_RTOL)
    if shift is None:
        r.zero("mass_shift_kg")


def check_me_sphere(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "predict me-sphere")
    n = _cross(_unit(p["e"]), _unit(p["b"]))
    scale = -2.0 * ETA_EXACT * HBAR_SI * (p["eps"] - 1.0) * p["g"] / (
        p["a_um"] * 1e-6)
    _sphere_rows(r, p, [scale * x for x in n], ETA_RTOL, None)
    return r.problems


def check_moving_sphere(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "predict moving-sphere")
    shift = -2.0 * ETA_EXACT * HBAR_SI * (p["eps"] - 1.0) ** 2 / (
        p["a_um"] * 1e-6 * C0_SI)
    r.near("mass_shift_kg", shift, ETA_RTOL)
    got = r.value("mass_shift_kg")
    _sphere_rows(r, p, [got * v for v in p["v"]], ROUND_RTOL, got)
    return r.problems


def check_eta(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "eta")
    r.near("eta", ETA_EXACT, ETA_RTOL)
    if r.value("eta_reference") != REFERENCE_ETA:
        r.problems.append("eta_reference is not the quoted 0.007909")
    m = REFERENCE_MAGNITUDES
    partial = m["I0"] - m["I1"] + m["C"] / 3 - m["A"] / 3 - m["E"] / 2
    r.near("D_implied", 3 * (REFERENCE_ETA * 192 * PI ** 2 - partial),
           ROUND_RTOL)
    r.near("D_quadrature", KERNEL_EXACT["D"], KERNEL_RTOL)
    r.near("D_ratio", r.value("D_implied") / r.value("D_quadrature"),
           ROUND_RTOL)
    return r.problems


def predict_invariant(kind: str, p: dict, report: dict) -> float:
    """-2 eta hbar as implied by one predict-workload report.

    momentum * a / ((epsilon - 1) g) along e x b, the mass shift times
    a c0 / (epsilon - 1)^2, and -2 hbar eta all equal it, whatever value the
    radial constants settle to, so it must agree across the seeded inputs.
    """
    rows = {row["name"]: row["value"] for row in report["results"]}
    if kind == "eta":
        return -2.0 * HBAR_SI * rows["eta"]
    a = p["a_um"] * 1e-6
    if kind == "moving-sphere":
        return rows["mass_shift_kg"] * a * C0_SI / (p["eps"] - 1.0) ** 2
    n = _cross(_unit(p["e"]), _unit(p["b"]))
    mom = [rows[f"momentum_{axis}_kg_m_s"] for axis in "xyz"]
    along = sum(x * y for x, y in zip(mom, n)) / sum(x * x for x in n)
    return along * a / ((p["eps"] - 1.0) * p["g"])


def check_invariant(values: list[float]) -> list[str]:
    return [f"implied -2 eta hbar {v!r} differs from {values[0]!r}"
            for v in values[1:]
            if not abs(v - values[0]) <= 1e-10 * abs(values[0])]


def check_constants(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "constants")
    by_method = {(row["name"], row["method"]): row["value"]
                 for row in report["results"]}
    for name, exact in TRIG_EXACT.items():
        r.near(name, exact, ROUND_RTOL,
               got=by_method.get((name, "trig_reduction"), math.nan))
    for name, exact in KERNEL_EXACT.items():
        r.near(name, exact, KERNEL_RTOL,
               got=by_method.get((name, "regulated_quadrature"), math.nan))
    r.near("eta", ETA_EXACT, ETA_RTOL)
    if len(report["results"]) != len(TRIG_EXACT) + len(KERNEL_EXACT) + 1:
        r.problems.append(f"{len(report['results'])} result rows")
    return r.problems


def freq_closed_form(kind: str, k: float, kp: float) -> float:
    """Imaginary part of the contour integral, derived apart from the program."""
    if kind == "transverse":
        return -(PI / 4) * (k + 2 * kp) / (k + kp) ** 2
    return (PI / 4) / (k * (k + kp) ** 2)


def check_freq(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "freq-check")
    n_pairs = p["pairs"] + 3
    if report["inputs"].get("seed") != p["seed"]:
        r.problems.append(f"seed {report['inputs'].get('seed')!r}")
    rows = report["results"]
    if len(rows) != 2 * n_pairs + 1:
        r.problems.append(f"{len(rows)} rows for {n_pairs} pairs")
        return r.problems
    fixed = [(1.0, 1.0), (2.0, 1.0), (0.1, 10.0)]
    worst = 0.0
    for i, row in enumerate(rows[:-1]):
        kind = ("transverse", "one_longitudinal")[i % 2]
        k, kp = row["k"], row["kp"]
        if row["name"] != kind:
            r.problems.append(f"row {i} is {row['name']}, expected {kind}")
        if i // 2 < 3 and (k, kp) != fixed[i // 2]:
            r.problems.append(f"row {i}: pair {(k, kp)}, expected {fixed[i // 2]}")
        if not (0.1 <= k <= 10.0 and 0.1 <= kp <= 10.0):
            r.problems.append(f"row {i}: pair {(k, kp)} outside [0.1, 10]")
            continue
        exact = freq_closed_form(kind, k, kp)
        label = f"row {i} {kind}({k!r}, {kp!r})"
        r.near(label + " closed form", exact, ROUND_RTOL,
               got=row["closed_form_imag"])
        r.near(label, exact, FREQ_RTOL, got=row["value"])
        # the reported error is |numeric - closed form| and bounds the
        # distance between the two imaginary parts it reports
        if not abs(row["value"] - row["closed_form_imag"]) <= (
                row["error"] * (1 + 1e-9)):
            r.problems.append(f"{label}: deviation exceeds its reported error")
        r.near(label + " rel_error", row["error"] / abs(row["closed_form_imag"]),
               1e-9, got=row["rel_error"])
        worst = max(worst, row["rel_error"])
    r.near("worst_rel_error", worst, ROUND_RTOL, got=rows[-1]["value"])
    if rows[-1]["name"] != "worst_rel_error" or not worst <= FREQ_RTOL:
        r.problems.append(f"worst_rel_error row {rows[-1]['name']} {worst!r}")
    return r.problems


def check_dipole(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "dipole")
    alpha, alpha0, gamma = p["alpha"] * 1e6, p["alpha0"] * 1e6, p["gamma"] * 1e2
    kappa0 = math.sqrt(4 * PI * gamma / alpha0)
    omega0 = C0_G * kappa0
    x = 2.0 / 3.0 * gamma * kappa0
    theta = 2.0 * math.asin(0.5 * x)
    shift = -(alpha0 / alpha) * HBAR_SI * omega0 / C0_SI ** 2
    r.near("omega0", omega0, ROUND_RTOL)
    r.near("hbar_omega0_eV", HBAR_SI * omega0 / EV, ROUND_RTOL)
    r.near("damping_ratio", x, ROUND_RTOL)
    r.near("alpha0_over_alpha", alpha0 / alpha, ROUND_RTOL)
    r.near("mass_shift_kg", shift, ROUND_RTOL)
    r.near("mass_shift_electron_masses", shift / ELECTRON_MASS, ROUND_RTOL)
    # J = int_0^inf Im(t0/kappa^2) dkappa in closed form
    r.near("spectral_integral",
           -2 * PI * gamma * (PI - theta) / (kappa0 * math.cos(theta / 2)), 1e-9)
    r.near("spectral_integral_target", -0.5 * PI * alpha0 * kappa0, ROUND_RTOL)
    j, target = r.value("spectral_integral"), r.value("spectral_integral_target")
    r.near("spectral_rel_deviation", abs(j - target) / abs(target), 1e-9)
    return r.problems


def check_feigel(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "predict feigel")
    a = p["a_um"] * 1e-6
    k = 2 * PI / (p["lambda_nm"] * 1e-9)
    pz = (4 * PI * a ** 3 / 3 / (32 * PI ** 3) * (1 / p["mu"] + p["eps"])
          * HBAR_SI * k ** 4 * p["g"])
    _sphere_rows(r, p, [0.0, 0.0, pz], ROUND_RTOL, None)
    return r.problems


def check_magneto_chiral(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "predict magneto-chiral")
    a_cm = p["a_um"] * 1e-4
    scale = (MAGNETO_CHIRAL_COEFF * HBAR_G * p["v0"] * C0_G ** 2 * p["gch"]
             / a_cm ** 3) * 1e4 * 1e-5  # tesla -> gauss, g cm/s -> kg m/s
    _sphere_rows(r, p, [scale * b for b in p["b"]], ROUND_RTOL, None)
    return r.problems


def check_empty_vacuum(p: dict, report: dict) -> list[str]:
    r = _Rows(report, "empty-vacuum")
    for axis in "xyz":
        r.zero(f"momentum_{axis}_kg_m_s")
    if len(report["results"]) != 3:
        r.problems.append(f"{len(report['results'])} result rows")
    return r.problems


CHECKS = {
    "me-sphere": check_me_sphere,
    "moving-sphere": check_moving_sphere,
    "eta": check_eta,
    "constants": check_constants,
    "freq-check": check_freq,
    "feigel": check_feigel,
    "magneto-chiral": check_magneto_chiral,
    "dipole": check_dipole,
    "empty-vacuum": check_empty_vacuum,
}
