"""Command-line interface: reports, formats, schemas, exit codes."""

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
from hypothesis import example, given, settings, strategies as st

import zpmomentum
from zpmomentum import oscillatory_integrals as osc
from zpmomentum.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, run

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


def run_capture(capsys, argv):
    code = run(argv)
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

def test_empty_vacuum_report(capsys):
    report = run_json(capsys, ["empty-vacuum"])
    assert report["command"] == "empty-vacuum"
    assert all(row["value"] == 0.0 for row in report["results"])
    assert report["warnings"] == []


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["does-not-exist"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["empty-vacuum", "--frobnicate"])
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

def test_freq_check_report(capsys):
    report = run_json(capsys, ["freq-check", "--pairs", "2"])
    worst = rows_by_name(report)["worst_rel_error"]["value"]
    assert worst <= 1e-5
    assert report["warnings"] == []
    for row in report["results"]:
        if row["name"] in ("transverse", "one_longitudinal"):
            assert row["method"] == "regulated_quadrature"
            assert "rel_error" in row


def test_freq_check_unreachable_tolerance_exits_3(capsys):
    code, out, _ = run_capture(capsys, ["freq-check", "--pairs", "1",
                                        "--tol", "1e-18", "--format", "json"])
    assert code == EXIT_NUMERICAL
    report = json.loads(out)
    assert report["warnings"]  # the breach is reported, not hidden


def test_freq_check_close_poles_refusal_prints_plain_floats(capsys):
    # this seed draws two wavenumbers 0.8% apart; the refusal names them as
    # plain floats and the smaller regulator it suggests resolves them
    code, out, err = run_capture(capsys, ["freq-check", "--seed", "229412539"])
    assert code == EXIT_NUMERICAL and out == ""
    assert "[1.0, 1.008284101583002]" in err
    assert "np.float64" not in err
    code, _, err = run_capture(capsys, ["freq-check", "--seed", "229412539",
                                        "--epsilon", "4e-4"])
    assert code == EXIT_OK, err


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


def test_invalid_schedule_exits_2(capsys):
    # the last schedule would need about 5e8 nodes per pass
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


def test_bad_vector_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["predict", "moving-sphere", "--material", "generic_dielectric",
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
    # float overflow, division by zero and an overflowing norm
    (["predict", "magneto-chiral", "--material", "MC_MATERIAL", "--a-um",
      "1e107", "--b", "0,0,1"], EXIT_NUMERICAL),
    (["predict", "feigel", "--a-um", "1", "--lambda-cut-nm", "1e-80"],
     EXIT_NUMERICAL),
    (["dipole", "--alpha", "1e300", "--alpha0", "1e300", "--gamma", "1e-300"],
     EXIT_NUMERICAL),
    (["predict", "me-sphere", "--a-um", "1", "--e0-dir=1,0,0",
      "--b0-dir=1e300,1e300,0"], EXIT_NUMERICAL),
])
def test_hostile_inputs_keep_exit_code_contract(capsys, recwarn, tmp_path,
                                                argv, expected):
    argv = [_magneto_chiral_material(tmp_path) if a == "MC_MATERIAL" else a
            for a in argv]
    try:
        code = run(argv + ["--format", "json"])
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


# --- the exit-code contract on generated argv --------------------------------

HOSTILE_NUMBERS = ("nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e300",
                   "-1e300", "1e-300", "1e-80", "1e107", "1", "0.5", "abc", "")
number = st.sampled_from(HOSTILE_NUMBERS)
vector = st.one_of(st.lists(number, min_size=1, max_size=4).map(",".join),
                   st.sampled_from(["1,0,0", "0,1,0", "-1,0,0", ",,", "1,0,"]))
material = st.sampled_from(["fegao3", "generic_dielectric", "MC_MATERIAL",
                            "/", "../x", "/nonexistent.json", "no_such"])


def _flag(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _sphere_argv(model, *extra):
    return _argv(st.just(["predict", model]), _flag("--material", material),
                 _flag("--a-um", number), *extra)


CLI_ARGV = st.one_of(
    _sphere_argv("me-sphere", _optional("--e0-dir", vector),
                 _optional("--b0-dir", vector)),
    _sphere_argv("moving-sphere", _flag("--v", vector)),
    _sphere_argv("magneto-chiral", _flag("--b", vector)),
    _sphere_argv("feigel", _flag("--lambda-cut-nm", number),
                 _optional("--chi-s0", number), _optional("--rho", number),
                 _optional("--mu", number),
                 _optional("--mode", st.sampled_from(["cutoff",
                                                      "dimensional"]))),
    _argv(st.just(["dipole"]), _flag("--alpha", number),
          _flag("--alpha0", number), _flag("--gamma", number),
          _optional("--hbar-omega0-eV", number)),
    _argv(st.just(["freq-check"]),
          _flag("--pairs", st.sampled_from(["-1", "0", "2", "nan"])),
          _flag("--tol", number), _flag("--epsilon", number)),
    _argv(st.just(["constants"]), _optional("--eps-schedule", st.sampled_from(
        ["0.3,0.1,0.05", "0.05,0.1,0.2", "0.1,0.05", "nan,0.1,0.05",
         "0.1,0.05,0", "0.1,0.05,-0.025", "inf,0.1,0.05", "0.1,0.1,0.05",
         "1e300", "a,b,c", ""]))),
    st.sampled_from([["eta"], ["empty-vacuum"]]),
)


@pytest.fixture(scope="module")
def mc_material(tmp_path_factory):
    return _magneto_chiral_material(tmp_path_factory.mktemp("material"))


@settings(max_examples=150, deadline=None)
@given(argv=CLI_ARGV)
@example(argv=["predict", "magneto-chiral", "--material", "MC_MATERIAL",
               "--a-um", "1e107", "--b", "0,0,1"])
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
            code = run(argv + ["--format", "json"])
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
    if code == EXIT_NUMERICAL:
        assert err.getvalue().startswith("numerical failure:")


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
        run(argv + flag)
    assert exc.value.code == EXIT_INPUT


def test_predictions_and_eta_run_no_regulated_pass(capsys):
    # Any pass, cached or not, would move the hit or the miss count.  The
    # cache is not cleared, so the tests after this one keep their passes.
    before = osc._regulated_pass.cache_info()
    for argv in (["predict", "me-sphere", "--a-um", "1"],
                 ["predict", "moving-sphere", "--a-um", "1", "--v", "1,0,0"],
                 ["eta"]):
        assert run(argv) == EXIT_OK
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
