"""Command-line interface: reports, formats, schemas, exit codes."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zpmomentum
from zpmomentum import oscillatory_integrals as osc
from zpmomentum.cli import (EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, RunReport,
                            _parse_schedule, _parse_vec3, build_parser,
                            freq_check_pairs, main)
from zpmomentum.contour_frequency import freq_oracle
from zpmomentum.point_dipole import DipoleSpec, spectral_integral_exact
from zpmomentum.base import ConvergenceError, IntegralResult

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


def run_capture(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_capture(capsys, argv + ["--format", "json"])
    assert code == EXIT_OK, err
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


def rows_by_name(report):
    return {row["name"]: row for row in report["results"]}


# --- basic plumbing ---------------------------------------------------------

def test_report_refuses_a_non_finite_value():
    report = RunReport("eta", {})
    with pytest.raises(FloatingPointError, match="eta is not finite"):
        report.add("eta", float("nan"))
    with pytest.raises(FloatingPointError, match="eta is not finite"):
        report.add("eta", 1.0, error=float("inf"))
    assert report.results == []


def test_empty_vacuum_report(capsys):
    report = run_json(capsys, ["empty-vacuum"])
    assert report["command"] == "empty-vacuum"
    assert all(row["value"] == 0.0 for row in report["results"])
    assert report["warnings"] == []


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["does-not-exist"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["empty-vacuum", "--frobnicate"])
    assert exc.value.code == 2


def test_csv_format_has_contracted_columns(capsys):
    code, out, _ = run_capture(capsys, ["empty-vacuum", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value", "error", "method"]
    assert all(len(r) == 4 for r in rows)
    assert float(rows[1][1]) == 0.0


def test_text_and_json_report_identical_numbers(capsys):
    report = run_json(capsys, ["predict", "me-sphere", "--material", "fegao3",
                               "--a-um", "1"])
    code, text, _ = run_capture(capsys, ["predict", "me-sphere", "--material",
                                         "fegao3", "--a-um", "1",
                                         "--format", "text"])
    assert code == EXIT_OK
    by_name = rows_by_name(report)
    found = 0
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in by_name:
            assert float(parts[1]) == by_name[parts[0]]["value"], parts[0]
            found += 1
    assert found == len(by_name)


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_capture(capsys, ["freq-check", "--pairs", "2",
                                      "--format", "json"])
    _, out2, _ = run_capture(capsys, ["freq-check", "--pairs", "2",
                                      "--format", "json"])
    assert out1 == out2


# --- numerical subcommands --------------------------------------------------

def test_eta_report_states_both_readings_of_d(capsys):
    report = run_json(capsys, ["eta"])
    assert [row["name"] for row in report["results"]] == [
        "eta", "eta_reference", "D_implied", "D_quadrature", "D_ratio"]
    d_warning, = [w for w in report["warnings"] if w.startswith("D implied")]
    assert "by a factor 149 with the reference signs as printed" in d_warning
    assert d_warning.endswith("it is 1.1782, 2.000 times the computed value")


def test_freq_check_report(capsys):
    report = run_json(capsys, ["freq-check", "--pairs", "2"])
    worst = rows_by_name(report)["worst_rel_error"]["value"]
    assert worst <= 1e-5
    assert report["warnings"] == []
    for row in report["results"]:
        if row["name"] in ("transverse", "one_longitudinal"):
            assert row["method"] == "regulated_quadrature"
            assert "rel_error" in row


def test_freq_check_runs_numpy_with_floating_point_faults_raising(
        capsys, monkeypatch):
    # every oracle call sees overflow, division by zero and invalid
    # operations raise, and the caller's numpy state is restored afterwards
    import numpy as np
    from zpmomentum import contour_frequency
    compare, seen = contour_frequency.compare, []

    def spy(*args):
        seen.append(np.geterr())
        return compare(*args)

    monkeypatch.setattr(contour_frequency, "compare", spy)
    before = np.geterr()
    run_json(capsys, ["freq-check", "--pairs", "0"])
    assert len(seen) == 6
    for state in seen:
        assert {state[k] for k in ("over", "divide", "invalid")} == {"raise"}
    assert np.geterr() == before


def test_freq_check_unreachable_tolerance_exits_3(capsys):
    code, out, _ = run_capture(capsys, ["freq-check", "--pairs", "1",
                                        "--tol", "1e-18", "--format", "json"])
    assert code == EXIT_NUMERICAL
    report = json.loads(out)
    assert report["warnings"]  # the breach is reported, not hidden


def test_freq_check_close_poles_refusal_prints_plain_floats(capsys):
    # this seed draws two wavenumbers 0.8% apart; freq-check runs that pair at
    # a regulator below --epsilon that resolves it
    report = run_json(capsys, ["freq-check", "--seed", "229412539"])
    close = [row for row in report["results"] if "k" in row and
             max(row["k"], row["kp"]) / min(row["k"], row["kp"])
             == 1.008284101583002]
    assert close
    assert all(row["regulator_epsilon"] < 1e-3 for row in close)
    # the library oracle still refuses that pair at the regulator it is
    # given, and names the poles as plain floats
    with pytest.raises(ConvergenceError) as exc:
        freq_oracle("transverse", 1.0, 1.008284101583002, epsilon=1e-3)
    assert "[1.0, 1.008284101583002]" in str(exc.value)
    assert "np.float64" not in str(exc.value)


def test_freq_check_top_of_epsilon_range_meets_a_loose_tolerance(capsys):
    # the fixed (2, 1) pair runs at 0.05, which its poles resolve; 0.1 itself
    # would be refused
    report = run_json(capsys, ["freq-check", "--epsilon", "0.1", "--tol",
                               "1e-3"])
    assert rows_by_name(report)["worst_rel_error"]["value"] <= 1e-3
    assert {row["regulator_epsilon"] for row in report["results"]
            if row.get("k") == 2.0 and row.get("kp") == 1.0} == {0.05}


def test_freq_check_epsilon_outside_oracle_range_exits_2(capsys):
    # up to about 2.2e-5 the (1, 1) pair that every run includes cannot
    # converge, so such a regulator is an input error that names the flag
    # and range
    for eps in ("1e-300", "1e-6", "1e-5", "2.2e-5", "0.2"):
        code, out, err = run_capture(capsys, ["freq-check", "--epsilon", eps])
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: --epsilon must lie in [3e-05, 0.1]")


def test_dipole_example_mass_shift(capsys):
    report = run_json(capsys, ["dipole", "--alpha", "1", "--alpha0", "1",
                               "--gamma", "1"])
    rows = rows_by_name(report)
    hbar = 1.054571817e-34
    c0 = 2.99792458e8
    omega0 = rows["omega0"]["value"]
    assert rows["mass_shift_kg"]["value"] == pytest.approx(
        -hbar * omega0 / c0**2, rel=1e-12)
    assert rows["alpha0_over_alpha"]["value"] == 1.0
    # this broad-resonance point must carry a warning about the sum rule
    assert report["warnings"]


def test_dipole_energy_cross_check_flag(capsys):
    base = ["dipole", "--alpha", "1", "--alpha0", "1", "--gamma", "1"]
    report = run_json(capsys, base)
    ev = rows_by_name(report)["hbar_omega0_eV"]["value"]
    code, _, _ = run_capture(capsys, base + ["--hbar-omega0-eV", str(ev)])
    assert code == EXIT_OK
    code, _, err = run_capture(capsys, base + ["--hbar-omega0-eV",
                                               str(2.0 * ev)])
    assert code == EXIT_INPUT
    assert "inconsistent" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dipole_energy_flag_must_be_finite(capsys, value):
    code, out, err = run_capture(capsys, [
        "dipole", "--alpha", "1", "--alpha0", "1", "--gamma", "1",
        f"--hbar-omega0-eV={value}"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --hbar-omega0-eV must be finite, got {value}\n"


def test_freq_check_negative_seed_names_its_flag(capsys):
    code, out, err = run_capture(capsys, ["freq-check", "--seed", "-1"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: --seed must be >= 0, got -1\n"


def test_invalid_schedule_exits_2(capsys):
    # above 0.2, and below the floor
    for schedule in ("0.3,0.1", "0.1,0.05,1e-6"):
        code, _, err = run_capture(capsys, ["constants", "--eps-schedule",
                                            schedule])
        assert code == EXIT_INPUT
        assert "regulator" in err
    # six values, one more than the Richardson powers
    code, _, err = run_capture(capsys, [
        "constants", "--eps-schedule",
        "0.1,0.05,0.025,0.0125,0.00625,0.003125"])
    assert code == EXIT_INPUT
    assert "at most 5 regulator values" in err


def test_clustered_schedule_exits_2(capsys):
    # accepted before, when it printed I0 = 18.896 against -0.589 with exit 0
    schedule = ("0.1924572840939046,0.19245337453884426,0.19245336606769473,"
                "0.1924533659470023,0.19245221398711507")
    code, out, err = run_capture(capsys, ["constants", "--eps-schedule",
                                          schedule])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: regulator values must be strictly "
                          "descending, each at most half the one before: ")


def test_sign_disagreement_warning_is_reached(monkeypatch, capsys):
    # no accepted schedule flips a sign, so the quadrature route's I1 is
    # flipped by hand; the report still exits 0 and names the constant
    real = osc.eval_bruteforce

    def flipped(name, schedule):
        res = real(name, schedule)
        return res if name != "I1" else IntegralResult(
            -res.value, res.error_estimate, res.method)
    monkeypatch.setattr(osc, "eval_bruteforce", flipped)
    code, out, _ = run_capture(capsys, ["constants"])
    assert code == EXIT_OK
    assert [line for line in out.splitlines() if "disagree" in line] == [
        "warning: I1: trig and quadrature routes disagree in sign"]


@pytest.mark.parametrize("argv", [["eta"], ["--help"]])
@pytest.mark.parametrize("sink", ["full device", "closed pipe"])
def test_failed_report_write_exits_2(sink, argv):
    # the report, or the help, cannot be written: exit 2 with one error
    # line, and no traceback now or at interpreter exit
    if sink == "full device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    src = str(Path(zpmomentum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        out = subprocess.run([sys.executable, "-m", "zpmomentum", *argv],
                             stdout=stdout, stderr=subprocess.PIPE, text=True,
                             timeout=60, env=env)
    finally:
        os.close(stdout)
    assert out.returncode == EXIT_INPUT
    assert out.stderr.startswith("error: cannot write the report: ")
    assert out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    assert "Exception ignored" not in out.stderr


# --- predictions through the CLI -------------------------------------------

def test_me_sphere_text_magnitude(capsys):
    code, out, _ = run_capture(capsys, ["predict", "me-sphere", "--material",
                                        "fegao3", "--a-um", "1",
                                        "--format", "text"])
    assert code == EXIT_OK
    speed_line = next(l for l in out.splitlines() if l.startswith("speed_m_s"))
    speed = float(speed_line.split()[1])
    assert 1e-21 <= speed <= 1e-19
    assert "warning:" in out  # sign + perturbative notes surface in text mode


def test_feigel_cutoff_estimate(capsys):
    report = run_json(capsys, ["predict", "feigel", "--material",
                               "generic_dielectric", "--a-um", "1",
                               "--lambda-cut-nm", "0.1", "--chi-s0", "1e-11",
                               "--rho", "1000"])
    speed = rows_by_name(report)["speed_m_s"]["value"]
    assert speed == pytest.approx(30e-9, rel=2.0)


def test_feigel_dimensional_mode_is_zero(capsys):
    report = run_json(capsys, ["predict", "feigel", "--material",
                               "generic_dielectric", "--a-um", "1",
                               "--lambda-cut-nm", "0.1", "--mode",
                               "dimensional"])
    assert rows_by_name(report)["speed_m_s"]["value"] == 0.0


def test_material_file_and_missing_material(tmp_path, capsys):
    mat = {"epsilon": 1.2, "mass_density_kg_m3": 800.0, "me_coupling": 1e-6}
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(mat))
    report = run_json(capsys, ["predict", "me-sphere", "--material", str(path),
                               "--a-um", "2"])
    assert report["inputs"]["material"] == str(path)
    for missing in ("no_such_material", "/nonexistent.json"):
        code, _, err = run_capture(capsys, ["predict", "me-sphere",
                                            "--material", missing,
                                            "--a-um", "1"])
        assert code == EXIT_INPUT
        assert "no preset" in err
        assert "['fegao3', 'generic_dielectric']" in err


@pytest.mark.parametrize("value", [[1.2], None, True, "1.2"])
def test_material_file_with_non_number_value_exits_2(tmp_path, capsys, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"epsilon": value,
                                "mass_density_kg_m3": 1000.0}))
    code, out, err = run_capture(capsys, ["predict", "moving-sphere",
                                          "--material", str(path),
                                          "--a-um", "1", "--v", "1,0,0"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and "epsilon must be a number" in err


def test_material_file_holding_an_array_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1.2, 1000.0]")
    code, out, err = run_capture(capsys, ["predict", "moving-sphere",
                                          "--material", str(path),
                                          "--a-um", "1", "--v", "1,0,0"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: material file {path} must contain a JSON object\n"


@pytest.mark.parametrize("depth", [1000, 100000])
def test_material_file_nested_too_deeply_exits_2(tmp_path, capsys, depth):
    # json.loads raises RecursionError past the interpreter's depth limit
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    code, out, err = run_capture(capsys, ["predict", "me-sphere",
                                          "--material", str(path),
                                          "--a-um", "1"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: material file {path} nests too deeply\n"


def test_material_file_with_too_large_integer_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"epsilon": 1' + "0" * 400
                    + ', "mass_density_kg_m3": 1000.0}')
    code, out, err = run_capture(capsys, ["predict", "moving-sphere",
                                          "--material", str(path),
                                          "--a-um", "1", "--v", "1,0,0"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: material file {path}: epsilon is too large for a " \
        "float\n"


def test_moving_sphere_cli(capsys):
    report = run_json(capsys, ["predict", "moving-sphere", "--material",
                               "generic_dielectric", "--a-um", "1",
                               "--v", "1,0,0"])
    rows = rows_by_name(report)
    assert rows["mass_shift_kg"]["value"] > 0.0
    assert rows["momentum_y_kg_m_s"]["value"] == 0.0
    assert any("mass_shift" in w for w in report["warnings"])


def test_magneto_chiral_cli_requires_coefficients(capsys):
    code, _, err = run_capture(capsys, ["predict", "magneto-chiral",
                                        "--material", "generic_dielectric",
                                        "--a-um", "1", "--b", "0,0,1"])
    assert code == EXIT_INPUT
    assert "verdet" in err


def _magneto_chiral_material(tmp_path):
    mat = {"epsilon": 1.5, "mass_density_kg_m3": 1000.0,
           "verdet_v0": 1e-26, "chirality_g": 1e-4}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(mat))
    return str(path)


def test_magneto_chiral_cli_carries_caveat(tmp_path, capsys):
    report = run_json(capsys, ["predict", "magneto-chiral", "--material",
                               _magneto_chiral_material(tmp_path),
                               "--a-um", "1", "--b", "0,0,1"])
    assert "macroscopic_model_probably_wrong" in report["warnings"]


@pytest.mark.parametrize("argv, message", [
    (["predict", "me-sphere", "--a-um", "-1"],
     "--a-um must be positive and finite, got -1.0"),
    (["predict", "moving-sphere", "--a-um", "inf", "--v", "1,0,0"],
     "--a-um must be positive and finite, got inf"),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "100",
      "--rho", "0"], "--rho must be positive and finite, got 0.0"),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "100",
      "--rho", "nan"], "--rho must be positive and finite, got nan"),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "100",
      "--chi-s0", "inf"], "--chi-s0 must be finite, got inf"),
])
def test_sphere_input_errors_name_the_flag(capsys, argv, message):
    # the flag and the value as typed, not the converted record field
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {message}\n"


def test_bad_vector_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "moving-sphere", "--material", "generic_dielectric",
             "--a-um", "1", "--v", "1,0"])
    assert exc.value.code == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("argv, expected", [
    (["predict", "moving-sphere", "--a-um", "1", "--v", "nan,0,0"],
     EXIT_INPUT),
    (["freq-check", "--pairs", "-3"], EXIT_INPUT),
    (["freq-check", "--pairs", "0", "--tol", "nan"], EXIT_INPUT),
    (["dipole", "--alpha", "1", "--alpha0", "1", "--gamma", "1",
      "--hbar-omega0-eV", "nan"], EXIT_INPUT),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "0"], EXIT_INPUT),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "inf"],
     EXIT_INPUT),
    # the sphere's mass underflows to zero or overflows
    (["predict", "moving-sphere", "--a-um", "1e-300", "--v", "1,0,0"],
     EXIT_INPUT),
    (["predict", "me-sphere", "--a-um", "1e200"], EXIT_INPUT),
    (["predict", "feigel", "--a-um", "1e-300", "--lambda-cut-nm", "100"],
     EXIT_INPUT),
    (["predict", "magneto-chiral", "--material", "MC_MATERIAL", "--a-um",
      "1e-300", "--b", "0,0,1"], EXIT_INPUT),
    # float overflow and underflow
    (["predict", "magneto-chiral", "--material", "MC_MATERIAL", "--a-um",
      "1e-100", "--b", "0,0,1"], EXIT_NUMERICAL),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "1e-80"],
     EXIT_NUMERICAL),
    (["dipole", "--alpha", "1e300", "--alpha0", "1e300", "--gamma", "1e-300"],
     EXIT_NUMERICAL),
])
def test_hostile_inputs_keep_exit_code_contract(capsys, recwarn, tmp_path,
                                                argv, expected):
    argv = [_magneto_chiral_material(tmp_path) if a == "MC_MATERIAL" else a
            for a in argv]
    try:
        code = main(argv + ["--format", "json"])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected
    if out:
        jsonschema.validate(json.loads(out, parse_constant=_reject_constant),
                            SCHEMA)
    assert ("error:" in err) if expected == EXIT_INPUT else \
        ("numerical failure:" in err)
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, command", [
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "1e-80"],
     "predict feigel"),
    (["dipole", "--alpha", "1e300", "--alpha0", "1e300", "--gamma", "1e-300"],
     "dipole"),
])
def test_numerical_failure_names_the_command(capsys, argv, command):
    code, out, err = run_capture(capsys, argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err.startswith(f"numerical failure: {command}: ")


@pytest.mark.parametrize("argv, message", [
    # a = 1e-106 m leaves a subnormal mass, and the momentum over it
    # exceeds the largest float
    (["predict", "magneto-chiral", "--material", "MC_MATERIAL", "--a-um",
      "1e-100", "--b=1,0,0"],
     "predict magneto-chiral: velocity = momentum / mass overflows a float "
     "at mass = 4.18878736e-315 kg"),
    # 4 pi gamma / alpha0 = 4 pi 1e-300 m / 1e300 m^3 is below the
    # smallest float
    (["dipole", "--alpha", "1e300", "--alpha0", "1e300", "--gamma", "1e-300"],
     "dipole: kappa0^2 = 4 pi gamma / alpha0 underflows to 0 at gamma = "
     "1e-300 m, alpha0 = 1e+300 m^3"),
    # 4 pi gamma / alpha0 = 4 pi 1e300 m / 1e-300 m^3 exceeds the largest
    # float
    (["dipole", "--alpha", "1", "--alpha0", "1e-300", "--gamma", "1e300"],
     "dipole: kappa0^2 = 4 pi gamma / alpha0 overflows at gamma = 1e+300 m, "
     "alpha0 = 1e-300 m^3"),
    # every sphere model divides by the mass through one helper
    (["predict", "me-sphere", "--material", "fegao3", "--a-um", "1e-100"],
     "predict me-sphere: velocity = momentum / mass overflows a float at "
     "mass = 1.8849543114e-314 kg"),
    (["predict", "moving-sphere", "--a-um", "1e-100", "--v=1,2,3"],
     "predict moving-sphere: velocity = momentum / mass overflows a float "
     "at mass = 4.18878736e-315 kg"),
    # kappa0 = 3.5e150 1/m is a float, but (2/3) gamma kappa0 is not
    (["dipole", "--alpha", "1", "--alpha0", "1", "--gamma", "1e300"],
     "dipole: damping_ratio = (2/3) gamma kappa0 overflows at gamma = "
     "1e+300 m"),
])
def test_numerical_failure_names_the_quantity(capsys, tmp_path, argv,
                                              message):
    argv = [_magneto_chiral_material(tmp_path) if a == "MC_MATERIAL" else a
            for a in argv]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == f"numerical failure: {message}\n"


def test_magneto_chiral_momentum_underflows_to_zero_rows(capsys, tmp_path):
    # at a = 1e101 m the momentum, about 1e-348 kg m/s, is below the
    # smallest float: every row reads 0.0 and the command succeeds
    report = run_json(capsys, ["predict", "magneto-chiral", "--material",
                               _magneto_chiral_material(tmp_path), "--a-um",
                               "1e107", "--b", "0,0,1"])
    assert [row["value"] for row in report["results"]] == [0.0] * 8


def test_huge_field_orientations_give_the_unit_rows(capsys):
    # scaling by 2^-600 is exact, so the squares in |e0| and |b0| stay finite
    # and the directions, hence every row, are those of the unit vectors
    base = ["predict", "me-sphere", "--material", "fegao3", "--a-um", "1"]
    huge = run_json(capsys, base + ["--e0-dir=1e300,1e300,0",
                                    "--b0-dir=0,1e300,1e300"])
    unit = run_json(capsys, base + ["--e0-dir=1,1,0", "--b0-dir=0,1,1"])
    assert huge["results"] == unit["results"]
    assert any(row["value"] != 0.0 for row in unit["results"])


def test_feigel_cutoff_overflow_names_k_cut(capsys):
    # k_cut = 2 pi / 1e-89 m: its fourth power exceeds the largest float
    code, out, err = run_capture(capsys, ["predict", "feigel", "--a-um", "1",
                                          "--lambda-cut-nm", "1e-80"])
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert err == ("numerical failure: predict feigel: k_cut^4 overflows a "
                   "float at k_cut = 6.283185307179586e+89 1/m\n")


# --- the exit-code contract on generated argv --------------------------------

HOSTILE_NUMBERS = ("nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e300",
                   "-1e300", "1e-300", "1e-80", "1e107", "1", "0.5", "abc", "")
number = st.sampled_from(HOSTILE_NUMBERS)
vector = st.one_of(st.lists(number, min_size=1, max_size=4).map(",".join),
                   st.sampled_from(["1,0,0", "0,1,0", "-1,0,0", ",,", "1,0,"]))
material = st.sampled_from(["fegao3", "generic_dielectric", "MC_MATERIAL",
                            "/", "../x", "/nonexistent.json", "no_such"])
schedule = st.sampled_from(
    ["0.3,0.1,0.05", "0.05,0.1,0.2", "0.1,0.05", "nan,0.1,0.05", "0.1,0.05,0",
     "0.1,0.05,-0.025", "inf,0.1,0.05", "0.1,0.1,0.05", "1e300", "a,b,c", ""])
# freq-check flags whose hostile numbers alone would nearly always stop at
# parsing or at the range check, so some valid values are drawn too
FLAG_VALUES = {
    "--pairs": st.sampled_from(["-1", "0", "2", "nan"]),
    "--seed": st.one_of(number, st.integers().map(str)),
    "--epsilon": st.one_of(number, st.sampled_from(["1e-3", "0.1"])),
}


def _flag(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _parser_flags(parser=None, command=""):
    """Each (sub)command of build_parser(), a predict model spelled
    'predict <model>', mapped to {flag: argparse action} for its flags
    besides --format and -h."""
    parser = parser or build_parser()
    sub = next((a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        return {command: {a.option_strings[-1]: a for a in parser._actions
                          if a.option_strings
                          and a.dest not in ("help", "format")}}
    return {name: flags for child_name, child in sub.choices.items()
            for name, flags in _parser_flags(
                child, f"{command} {child_name}".strip()).items()}


def _hostile_values(flag, action):
    """The values drawn for one flag, picked by its argparse action."""
    if flag in FLAG_VALUES:
        return FLAG_VALUES[flag]
    if action.choices:
        return st.sampled_from(list(action.choices))
    if flag == "--material":
        return material
    return {_parse_vec3: vector, _parse_schedule: schedule}.get(action.type,
                                                                number)


def _command_argv(command):
    """argv for one (sub)command: each required flag drawn, each other flag
    drawn or left out, so that every flag the parser accepts is drawn."""
    return _argv(st.just(command.split()), *[
        (_flag if action.required else _optional)(
            flag, _hostile_values(flag, action))
        for flag, action in _parser_flags()[command].items()])


CLI_ARGV = st.one_of(*map(_command_argv, _parser_flags()))


@pytest.fixture(scope="module")
def mc_material(tmp_path_factory):
    return _magneto_chiral_material(tmp_path_factory.mktemp("material"))


@settings(max_examples=150, deadline=None)
@given(argv=CLI_ARGV)
@example(argv=["predict", "magneto-chiral", "--material", "MC_MATERIAL",
               "--a-um", "1e107", "--b", "0,0,1"])
@example(argv=["predict", "magneto-chiral", "--material", "MC_MATERIAL",
               "--a-um", "1e-100", "--b", "0,0,1"])
@example(argv=["predict", "feigel", "--a-um", "1", "--lambda-cut-nm",
               "1e-80"])
@example(argv=["dipole", "--alpha", "1e300", "--alpha0", "1e300", "--gamma",
               "1e-300"])
@example(argv=["predict", "me-sphere", "--a-um", "1", "--e0-dir=1,0,0",
               "--b0-dir=1e300,1e300,0"])
@example(argv=["predict", "me-sphere", "--material", "fegao3", "--a-um", "1"])
@example(argv=["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "100"])
def test_every_argv_keeps_exit_code_contract(mc_material, argv):
    argv = [a.replace("MC_MATERIAL", mc_material) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if out.getvalue():
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(report, SCHEMA)
        # every zero prints unsigned
        assert not [row for row in report["results"] if row["value"] == 0.0
                    and math.copysign(1.0, row["value"]) < 0]
    if code == EXIT_NUMERICAL and not out.getvalue():
        assert err.getvalue().startswith("numerical failure:")
    elif code == EXIT_NUMERICAL:  # a missed tolerance prints its report
        assert report["warnings"]


def _main_json(argv):
    """main(argv) in process with JSON output: (exit code, report or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0), pairs=st.integers(0, 50),
       epsilon=st.floats(3e-5, 1e-2), tol=st.floats(1e-5, 1e300))
@example(seed=8, pairs=20, epsilon=1e-3, tol=1e-5)
@example(seed=43, pairs=20, epsilon=1e-3, tol=1e-5)
def test_freq_check_documented_domain_exits_0(seed, pairs, epsilon, tol):
    # numpy seeds are non-negative.  Distinct wavenumbers closer than a
    # relative gap of 1e-4 converge at no regulator (README), so those draws,
    # about one seed in a thousand, lie outside the domain
    assume(all(k == kp or abs(k - kp) >= 1e-4 * min(k, kp)
               for k, kp in freq_check_pairs(seed, pairs)))
    code, report = _main_json(["freq-check", "--seed", str(seed), "--pairs",
                               str(pairs), "--epsilon", repr(epsilon),
                               "--tol", repr(tol)])
    assert code == EXIT_OK
    rows = report["results"][:-1]
    assert all(row["regulator_epsilon"] <= epsilon for row in rows)


# the documented domains of predict and dipole, where every argv exits 0
_component = st.floats(-1e3, 1e3)  # -0.0 and subnormals included
domain_vector = st.tuples(_component, _component, _component).filter(
    any).map(lambda v: ",".join(map(repr, v)))
domain_radius = st.floats(-3.0, 3.0).map(lambda e: repr(10.0 ** e))
preset = st.sampled_from(["fegao3", "generic_dielectric"])


def _domain_sphere_argv(model, material, *extra):
    return _argv(st.just(["predict", model]), _flag("--material", material),
                 _flag("--a-um", domain_radius), *extra)


PREDICT_DOMAIN = st.one_of(
    _domain_sphere_argv("me-sphere", preset,
                        _optional("--e0-dir", domain_vector),
                        _optional("--b0-dir", domain_vector)),
    _domain_sphere_argv("moving-sphere", preset, _flag("--v", domain_vector)),
    _domain_sphere_argv("magneto-chiral", st.just("MC_MATERIAL"),
                        _flag("--b", domain_vector)),
    _domain_sphere_argv(
        "feigel", preset,
        _flag("--lambda-cut-nm", st.floats(-3.0, 6.0).map(
            lambda e: repr(10.0 ** e))),
        _optional("--chi-s0", st.floats(-1.0, 1.0)),
        _optional("--rho", st.floats(100.0, 2e4)),
        _optional("--mu", st.floats(0.1, 10.0)),
        _optional("--mode", st.sampled_from(["cutoff", "dimensional"]))),
)


@settings(max_examples=30, deadline=None)
@given(argv=PREDICT_DOMAIN)
@example(argv=["predict", "me-sphere", "--material", "fegao3", "--a-um",
               "1", "--e0-dir=1e-200,0,0"])
def test_predict_documented_domain_exits_0(mc_material, argv):
    # radii of 1e-3 to 1e3 um, the bundled presets and nonzero vectors with
    # components up to 1e3 (so --v stays far below 0.01 c0)
    code, report = _main_json([a.replace("MC_MATERIAL", mc_material)
                               for a in argv])
    assert code == EXIT_OK
    jsonschema.validate(report, SCHEMA)


@settings(max_examples=25, deadline=None)
@given(alpha0_cm3=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       damping=st.floats(-14.0, math.log10(26.0)).map(lambda e: 10.0 ** e),
       ratio=st.floats(0.1, 1.0))
def test_dipole_documented_domain_exits_0(alpha0_cm3, damping, ratio):
    # alpha0 of 0.01 to 100 cm^3 (the range bench/run.py scans), a damping
    # ratio x = (2/3) gamma sqrt(4 pi gamma / alpha0) of 1e-14 to 26, under-
    # and overdamped, and alpha0 / alpha of 0.1 to 1
    gamma_cm = (1.5 * damping / math.sqrt(4.0 * math.pi / alpha0_cm3)
                ) ** (2.0 / 3.0)
    argv = ["--alpha", repr(alpha0_cm3 / ratio * 1e-6), "--alpha0",
            repr(alpha0_cm3 * 1e-6), "--gamma", repr(gamma_cm * 1e-2)]
    code, report = _main_json(["dipole", *argv])
    assert code == EXIT_OK
    jsonschema.validate(report, SCHEMA)
    spec = DipoleSpec(*map(float, argv[1::2]))
    rows = {row["name"]: row["value"] for row in report["results"]}
    assert rows["spectral_integral"] == spectral_integral_exact(spec) * 1e4


@pytest.mark.parametrize("flag", [["--tol", "1e-3"],
                                  ["--eps-schedule", "0.1,0.05,0.025"]])
@pytest.mark.parametrize("argv", [
    ["predict", "me-sphere", "--a-um", "1"],
    ["eta"],
    ["dipole", "--alpha", "1", "--alpha0", "1", "--gamma", "1"],
    ["empty-vacuum"],
])
def test_quadrature_flags_only_where_read(argv, flag):
    # --eps-schedule belongs to constants and --tol to freq-check alone
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == EXIT_INPUT


def test_predictions_and_eta_run_no_regulated_pass(capsys):
    # Any pass, cached or not, would move the hit or the miss count.  The
    # cache is not cleared, so the tests after this one keep their passes.
    before = osc._regulated_pass.cache_info()
    for argv in (["predict", "me-sphere", "--a-um", "1"],
                 ["predict", "moving-sphere", "--a-um", "1", "--v", "1,0,0"],
                 ["eta"]):
        assert main(argv) == EXIT_OK
    after = osc._regulated_pass.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# --- the console script -----------------------------------------------------

def _declared_console_script() -> str:
    """The `zpmomentum` entry of [project.scripts] in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no TOML reader
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        return re.search(r'^zpmomentum\s*=\s*"([^"]*)"', table, re.M).group(1)
    return tomllib.loads(text)["project"]["scripts"]["zpmomentum"]


def test_console_script_constants_json():
    # The installed script and `python -m zpmomentum` both call the function
    # declared in pyproject.toml; the subprocess runs it without an install,
    # on the same source tree this suite imports.
    module, func = _declared_console_script().split(":")
    assert (module, func) == ("zpmomentum.cli", "main")
    entry = importlib.import_module("zpmomentum.__main__")
    assert entry.main is getattr(importlib.import_module(module), func)

    src = str(Path(zpmomentum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "zpmomentum", "constants",
                          "--format", "json"],
                         capture_output=True, text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    jsonschema.validate(report, SCHEMA)
    names = [row["name"] for row in report["results"]]
    for required in ("I0", "I1", "A", "C", "D", "E", "E1", "E2", "E3", "eta"):
        assert required in names
    methods = {row["method"] for row in report["results"]}
    assert {"trig_reduction", "regulated_quadrature"} <= methods
    # both routes present for the four dual-route constants
    assert names.count("I0") == 2
    # the logged discrepancies (signs, the E mismatch) must fire as warnings
    assert report["warnings"]
    assert any("eta" in w for w in report["warnings"])


# --- the README's flag table ------------------------------------------------

def test_readme_flag_table_matches_parser():
    # one row per (sub)command; its flags column names every flag the parser
    # accepts there besides --format, and no other
    text = (ROOT / "README.md").read_text()
    rows = {command: set(re.findall(r"--[A-Za-z0-9-]*[A-Za-z0-9]", flags))
            for command, flags in re.findall(
                r"^\| `([a-z][a-z -]*)` \| ([^|]*) \|", text, re.M)}
    assert rows == {command: set(flags)
                    for command, flags in _parser_flags().items()}


# --- the README's numbers ---------------------------------------------------

def test_readme_numbers_match_their_source():
    readme = (ROOT / "README.md").read_text()
    text = " ".join(readme.split())
    readings = re.search(r"`D_implied` = ([\d.]+), (\d+) times .* it gives "
                         r"([\d.]+), within .* ([\d.]+) times the computed "
                         r"`D`", text).groups()
    eta_out = (ROOT / "tests" / "golden" / "eta.out").read_text()
    assert readings == re.search(
        r"eta \(([\d.]+)\) .* by a factor (\d+) .* it is ([\d.]+), "
        r"([\d.]+) times", eta_out).groups()
    snippet = re.search(r"print\(r\.value\) +# (\S+),", text).group(1)
    assert snippet == repr(osc.eval_trig("I0").value)
    # the abridged me-sphere report: its argv, and each stretch between its
    # "..." lines, whitespace aside, as the golden prints them
    argv, body = re.search(r"Sample \(abridged\) text report:\s*```\n"
                           r"\$ zpmomentum (.*?)\n(.*?)```", readme,
                           re.S).groups()
    golden = (ROOT / "tests" / "golden" / "me_sphere.out").read_text()
    assert golden.startswith(f"argv: {argv}\nexit: 0\n--- stdout\n")
    stdout = " ".join(golden.split("--- stdout\n")[1].split("--- stderr")[0]
                      .split())
    stretches = body.replace(".../presets/", "<presets>/").split("\n...\n")
    assert len(stretches) == 2
    for stretch in stretches:
        assert " ".join(stretch.split()) in stdout, stretch
