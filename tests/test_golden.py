"""Golden report corpus: every report a fixed list of argv prints.

Each file under tests/golden/ holds one argv's exit code, stdout and stderr,
with the bundled presets' directory written as <presets> and this corpus's
directory as <golden>.  The test reruns every argv in process and compares
byte for byte, except the rows of the frequency oracle, whose quadratures
are numpy dot products with last bits that depend on the BLAS build.  The
numbers of a row whose method is regulated_quadrature are compared within
1e-12 of the row's largest number, and the relative deviation computed from
such rows (worst_rel_error) within 1e-12.  The regulated constants share
that method name, and so the tolerance, though they run on plain floats and
go through no BLAS.  The dipole's spectral_rel_deviation compares two closed
forms, so it is compared byte for byte.  numpy.txt records the numpy version
the corpus was written with.

A change that moves any reported digit rewrites the corpus with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows exactly which digits moved.
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import numpy as np

import zpmomentum
from zpmomentum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PRESETS = Path(zpmomentum.__file__).resolve().parent / "presets"
MC_MATERIAL = str(GOLDEN / "magneto_chiral_material.json")
HUGE_EPSILON = str(GOLDEN / "huge_epsilon_material.json")
ATOMIC = ["dipole", "--alpha", "1e-29", "--alpha0", "5e-30", "--gamma", "1e-10"]
ME_SPHERE = ["predict", "me-sphere", "--material", "fegao3", "--a-um", "1"]
FEIGEL = ["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "100"]

# file stem -> argv
CASES = {
    "constants": ["constants"],
    "constants_json": ["constants", "--format", "json"],
    "constants_csv": ["constants", "--format", "csv"],
    "eta": ["eta"],
    "eta_json": ["eta", "--format", "json"],
    "eta_csv": ["eta", "--format", "csv"],
    "freq_check": ["freq-check"],
    "freq_check_seed7_csv": ["freq-check", "--pairs", "4", "--seed", "7",
                             "--format", "csv"],
    "freq_check_seed425": ["freq-check", "--seed", "425"],
    "dipole": ATOMIC,
    "dipole_json": ATOMIC + ["--format", "json"],
    "dipole_csv": ATOMIC + ["--format", "csv"],
    "dipole_broad": ["dipole", "--alpha", "2e-6", "--alpha0", "1e-6",
                     "--gamma", "1.2e-3"],
    # x = 2.4e300, far into the overdamped branch of J's closed form
    "dipole_overdamped": ["dipole", "--alpha", "1", "--alpha0", "1",
                          "--gamma", "1e200"],
    "dipole_energy_mismatch": ATOMIC + ["--hbar-omega0-eV", "1"],
    "dipole_alpha0_above_alpha": ["dipole", "--alpha", "1e-6", "--alpha0",
                                  "2e-6", "--gamma", "1e-3"],
    "dipole_kappa0_underflow": ["dipole", "--alpha", "1e300", "--alpha0",
                                "1e300", "--gamma", "1e-300"],
    # x underflows to 0, where J is the sum-rule target
    "dipole_panel_underflow": ["dipole", "--alpha", "1e94", "--alpha0",
                               "1e94", "--gamma", "1e-202"],
    "me_sphere": ME_SPHERE,
    "me_sphere_json": ME_SPHERE + ["--format", "json"],
    "me_sphere_csv": ME_SPHERE + ["--format", "csv"],
    "me_sphere_negative_radius": ["predict", "me-sphere", "--a-um", "-1"],
    # off-axis vectors pin the plain sum of squares in |e0|, |b0| and speed
    "me_sphere_off_axis": ME_SPHERE + ["--e0-dir=1,2,3", "--b0-dir=-2,0.5,1"],
    "moving_sphere": ["predict", "moving-sphere", "--a-um", "1",
                      "--v", "1,0,0"],
    "moving_sphere_off_axis": ["predict", "moving-sphere", "--a-um", "1",
                               "--v=1,2,3"],
    "moving_sphere_contrast_overflow": ["predict", "moving-sphere",
                                        "--material", HUGE_EPSILON,
                                        "--a-um", "1", "--v", "0,0,0"],
    "magneto_chiral": ["predict", "magneto-chiral", "--material",
                       MC_MATERIAL, "--a-um", "1", "--b", "0,0,1"],
    "magneto_chiral_speed_overflow": ["predict", "magneto-chiral",
                                      "--material", MC_MATERIAL, "--a-um",
                                      "1e-3", "--b=1e300,0,0"],
    "feigel": FEIGEL + ["--chi-s0", "1e-11", "--rho", "1000"],
    "feigel_dimensional": FEIGEL + ["--mode", "dimensional"],
    "feigel_zero_rho": FEIGEL + ["--rho", "0"],
    "feigel_infinite_chi_s0": FEIGEL + ["--chi-s0", "inf"],
    "feigel_k_cut_overflow": ["predict", "feigel", "--a-um", "1",
                              "--lambda-cut-nm", "1e-80"],
    "feigel_momentum_overflow": ["predict", "feigel", "--a-um", "1",
                                 "--lambda-cut-nm", "1e-3", "--chi-s0",
                                 "1e300"],
    "empty_vacuum": ["empty-vacuum"],
}

# a number not inside a name such as I0 or omega0
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
REL_TOL = 1e-12
DEVIATIONS = ("worst_rel_error",)


def run(argv) -> str:
    """The exit code, stdout and stderr of one in-process run, normalised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    text = (f"argv: {shlex.join(argv)}\nexit: {code}\n--- stdout\n"
            f"{out.getvalue()}--- stderr\n{err.getvalue()}")
    return text.replace(str(PRESETS), "<presets>").replace(str(GOLDEN),
                                                           "<golden>")


def _records(text: str) -> list[str]:
    """Lines, except that each JSON result object (its lines indented six
    spaces or more) is one record."""
    return re.split(r"\n(?! {6})", text)


def _same_record(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    deviation = any(name in expected for name in DEVIATIONS)
    if not (deviation or "regulated_quadrature" in expected):
        return False
    if NUMBER.sub("#", expected) != NUMBER.sub("#", actual):
        return False
    want = [float(m) for m in NUMBER.findall(expected)]
    got = [float(m) for m in NUMBER.findall(actual)]
    scale = 1.0 if deviation else max(map(abs, want))
    return all(abs(w - g) <= REL_TOL * scale for w, g in zip(want, got))


def differences(expected: str, actual: str) -> list[tuple[str, str]]:
    """The (expected, actual) records that differ beyond the tolerance."""
    old, new = _records(expected), _records(actual)
    if len(old) != len(new):
        return [(expected, actual)]
    return [(e, a) for e, a in zip(old, new) if not _same_record(e, a)]


def test_reports_match_the_golden_corpus():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)
    moved = {}
    for stem, argv in CASES.items():
        diff = differences((GOLDEN / f"{stem}.out").read_bytes().decode(),
                           run(argv))
        if diff:
            moved[stem] = diff
    assert moved == {}, (
        "reports moved; if intended, rewrite the corpus with "
        "`PYTHONPATH=src python tests/test_golden.py` and name the moved "
        "digits in CHANGES.md")


def test_tolerance_reaches_only_regulated_rows():
    row = "I0  -0.5890486225480862  (err 1.13e-08, regulated_quadrature)"
    assert differences(row, row.replace("480862", "480863")) == []
    assert differences(row, row.replace("0.589", "0.588")) != []
    exact = row.replace("regulated_quadrature", "trig_reduction")
    assert differences(exact, exact.replace("480862", "480863")) != []
    worst = "worst_rel_error   7.103783414256978e-09  (err 0.00e+00, derived)"
    assert differences(worst, worst.replace("783414", "782422")) == []
    assert differences(worst, worst.replace("e-09", "e-08")) != []
    spectral = ("spectral_rel_deviation      0.23960469142325674  "
                "(err 0.00e+00, derived)")
    assert differences(spectral, spectral.replace("142325", "142326")) != []


def regenerate() -> None:
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for stem, argv in CASES.items():
        (GOLDEN / f"{stem}.out").write_bytes(run(argv).encode())
    (GOLDEN / "numpy.txt").write_text(np.__version__ + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
