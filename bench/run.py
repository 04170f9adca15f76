"""Benchmark of cold zpmomentum invocations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The harness drives the program only
through cold subprocesses, `python -m zpmomentum ...` with PYTHONPATH=src,
one child at a time, each with BLAS and OpenMP limited to CHILD_THREADS.
Every workload is a closed loop of one client: the next invocation starts
when the previous one has ended.  Whole rounds run, and a new round starts
only while it is expected to end within S seconds, so a run measures at most
about S seconds and always at least one round.  Inputs come from the seed
alone; the program sees only the generated argv and material files.  Every
report is checked (checks.py).

The last line of standard output is one JSON object with correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a separate traced run (layers.py) gives the per-layer ones.
`--workload all` runs every workload in turn and prints one line for each.
Results go to .bench_work/results/ and traces to .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema.json"
WORK = ROOT / ".bench_work"
LAYERS = Path(__file__).resolve().parent / "layers.py"

# One BLAS thread: on a shared 2-vCPU machine two threads cut a cold `predict`
# from 22.9 s to 20.4 s of wall time, for 33.6 s of CPU instead of 22.5 s.
CHILD_THREADS = 1
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150.0
FREQ_PAIRS = 20

PREDICT_KINDS = ("me-sphere", "moving-sphere", "eta")
# The dipole quadrature's fixed absolute tolerance exceeds |J| at atomic
# polarizabilities, so this invocation exits 3 on every run (CHANGES.md).
ATOMIC_DIPOLE = {"alpha": 1e-30, "alpha0": 5e-31, "gamma": 1e-12}


@dataclass
class Op:
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(CHILD_THREADS)
    return env


def run_child(args: list[str]) -> Child:
    """One child process, with its own wall time, CPU time and peak RSS."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
                 stdout=out_path.read_text(), stderr=err_path.read_text())


# --- seeded inputs -----------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _vec_arg(v) -> str:
    return ",".join(repr(x) for x in v)


def _spread_vector(rng: random.Random, scale: float) -> list[float]:
    """A direction with no component below 0.2 of its length, so that every
    reported component carries digits a relative check can test."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if min(abs(x) for x in v) >= 0.2 * norm:
            return [scale * x / norm for x in v]


def _material(rng: random.Random, path: Path, **extra) -> dict:
    """A weak-contrast material (0.05 <= |epsilon - 1| <= 0.5) written to path."""
    eps = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
    p = {"eps": eps, "rho": rng.uniform(500.0, 8000.0),
         "g": _log_uniform(rng, 1e-6, 1e-2), "a_um": _log_uniform(rng, 0.05, 50.0)}
    doc = {"epsilon": p["eps"], "mass_density_kg_m3": p["rho"],
           "me_coupling": p["g"], **extra}
    path.write_text(json.dumps(doc))
    return p


def _sphere_argv(model: str, p: dict, path: Path) -> list[str]:
    return ["predict", model, "--material", str(path), "--a-um", repr(p["a_um"]),
            "--format", "json"]


def predict_rounds(rng: random.Random, seed: int, inputs: Path):
    """One invocation per round, cycling the kinds from a seed-chosen start.
    Each reaches reconciled_constants(), whose four regulated passes are
    about 95% of the op."""
    for i in range(seed % 3, 10 ** 9):
        kind = PREDICT_KINDS[i % 3]
        if kind == "eta":
            yield [Op(kind, ["eta", "--format", "json"])]
            continue
        path = inputs / f"predict-{i}.json"
        p = _material(rng, path)
        argv = _sphere_argv(kind, p, path)
        if kind == "me-sphere":
            while True:
                e, b = _spread_vector(rng, 1.0), _spread_vector(rng, 1.0)
                n = checks._cross(checks._unit(e), checks._unit(b))
                norm = math.sqrt(sum(x * x for x in n))
                if norm >= 0.3 and min(abs(x) for x in n) >= 0.2 * norm:
                    break
            p.update(e=e, b=b)
            argv += ["--e0-dir=" + _vec_arg(e), "--b0-dir=" + _vec_arg(b)]
        else:
            p["v"] = _spread_vector(rng, _log_uniform(rng, 1.0, 1e5))
            argv.append("--v=" + _vec_arg(p["v"]))
        yield [Op(kind, argv, p)]


def constants_rounds(rng: random.Random, seed: int, inputs: Path):
    while True:
        yield [Op("constants", ["constants", "--format", "json"])]


def regulated_rounds(rng: random.Random, seed: int, inputs: Path):
    """A prediction from predict_rounds, then `constants`: every command
    that runs the four regulated passes today.  ROADMAP item 1 takes the
    pass off the first, item 2 makes it cheap in both."""
    for (op,) in predict_rounds(rng, seed, inputs):
        yield [op, Op("constants", ["constants", "--format", "json"])]


def cli_freq_pairs(s: int) -> list[tuple[float, float]]:
    """The pairs `freq-check --pairs FREQ_PAIRS --seed s` compares, drawn the
    way the command draws them (numpy float64 scalars)."""
    import numpy as np
    rng = np.random.default_rng(s)
    return [(1.0, 1.0), (2.0, 1.0), (0.1, 10.0)] + [
        tuple(10.0 ** rng.uniform(-1.0, 1.0, 2)) for _ in range(FREQ_PAIRS)]


def _resolvable(pairs) -> bool:
    """False when two distinct wavenumbers lie within 5% of each other: the
    oracle refuses pairs within about 2% at its default regulator, so the
    command exits 3 on about one seed in four (CHANGES.md)."""
    return all(k == kp or abs(math.log(k / kp)) >= 0.05 for k, kp in pairs)


def freq_rounds(rng: random.Random, seed: int, inputs: Path):
    while True:
        s = rng.randrange(1, 2 ** 31)
        if not _resolvable(cli_freq_pairs(s)):
            continue
        yield [Op("freq-check", ["freq-check", "--pairs", str(FREQ_PAIRS),
                                 "--seed", str(s), "--format", "json"],
                  {"pairs": FREQ_PAIRS, "seed": s})]


def _dipole_op(p: dict) -> Op:
    return Op("dipole", ["dipole", "--alpha", repr(p["alpha"]), "--alpha0",
                         repr(p["alpha0"]), "--gamma", repr(p["gamma"]),
                         "--format", "json"], p)


def closed_form_rounds(rng: random.Random, seed: int, inputs: Path):
    """feigel, magneto-chiral, a dipole, empty-vacuum and the atomic dipole."""
    for i in range(10 ** 9):
        path = inputs / f"feigel-{i}.json"
        p = _material(rng, path)
        p.update(lambda_nm=_log_uniform(rng, 100.0, 2000.0),
                 mu=rng.uniform(0.5, 2.0))
        feigel = Op("feigel", _sphere_argv("feigel", p, path) + [
            "--lambda-cut-nm", repr(p["lambda_nm"]), "--mu", repr(p["mu"])], p)

        path = inputs / f"chiral-{i}.json"
        v0 = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 1e-2)
        gch = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 1e-2)
        p = _material(rng, path, verdet_v0=v0, chirality_g=gch)
        p.update(v0=v0, gch=gch, b=_spread_vector(rng, rng.uniform(0.1, 10.0)))
        chiral = Op("magneto-chiral", _sphere_argv("magneto-chiral", p, path)
                    + ["--b=" + _vec_arg(p["b"])], p)

        # alpha0 in 0.01..100 cm^3 and damping ratio x in 1e-4..1e-2, where
        # the quadrature converges: x = (2/3) gamma sqrt(4 pi gamma / alpha0)
        alpha0 = _log_uniform(rng, 1e-2, 1e2)
        x = _log_uniform(rng, 1e-4, 1e-2)
        gamma = (1.5 * x / math.sqrt(4.0 * math.pi / alpha0)) ** (2.0 / 3.0)
        alpha = alpha0 / rng.uniform(0.1, 1.0)
        dipole = _dipole_op({"alpha": alpha * 1e-6, "alpha0": alpha0 * 1e-6,
                             "gamma": gamma * 1e-2})
        yield [feigel, chiral, dipole,
               Op("empty-vacuum", ["empty-vacuum", "--format", "json"]),
               _dipole_op(dict(ATOMIC_DIPOLE))]


# BENCHMARK.json lists the first two: only runs of about a minute repeat on a
# machine whose speed drifts, and the time for all runs allows two of them.
WORKLOADS = {"regulated": regulated_rounds, "closed-form": closed_form_rounds,
             "predict": predict_rounds, "constants": constants_rounds,
             "freq-check": freq_rounds}


# --- runs ------------------------------------------------------------------

def check_output(op: Op, stdout: str) -> tuple[list[str], dict | None]:
    try:
        report = checks.parse_report(stdout, SCHEMA)
    except ValueError as exc:  # not strict JSON, or not the schema
        return [f"{op.kind}: {exc}"], None
    try:
        problems = checks.CHECKS[op.kind](op.params, report)
    except (KeyError, TypeError) as exc:  # a row lacks a field or has a wrong type
        problems = [f"malformed report: {exc!r}"]
    return [f"{op.kind}: {p}" for p in problems], report


def setup_seconds() -> float:
    """Median wall time of a fresh `import zpmomentum`, after one warm-up
    that leaves the bytecode cache filled."""
    args = ["-c", "import zpmomentum"]
    warm = run_child(args)
    if warm.code != 0:
        raise RuntimeError(f"import zpmomentum failed:\n{warm.stderr}")
    return statistics.median(run_child(args).wall_s for _ in range(SETUP_RUNS))


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    setup = setup_seconds()
    rounds = WORKLOADS[workload](random.Random(seed), seed, inputs)
    attempted = failed = 0
    problems: list[str] = []
    ok: list[Child] = []
    peak_rss = 0.0
    invariants = []
    start = time.perf_counter()
    elapsed, rounds_done = 0.0, 0
    # the next round starts only if a round of the mean length so far ends in time
    while rounds_done == 0 or elapsed + elapsed / rounds_done <= seconds:
        for op in next(rounds):
            child = run_child(["-m", "zpmomentum", *op.argv])
            attempted += 1
            peak_rss = max(peak_rss, child.rss_mb)
            if child.code != 0:
                failed += 1
                if failed == 1:
                    print(f"{op.kind} exited {child.code}: "
                          f"{child.stderr.strip()[-300:]}", file=sys.stderr)
                continue
            ok.append(child)
            found, report = check_output(op, child.stdout)
            problems += found
            if op.kind in PREDICT_KINDS and report is not None and not found:
                invariants.append(checks.predict_invariant(op.kind, op.params,
                                                           report))
        rounds_done += 1
        elapsed = time.perf_counter() - start
    if invariants:
        problems += checks.check_invariant(invariants)
    if not ok:
        raise RuntimeError(f"all {attempted} invocations failed")
    metrics = {
        "setup_s": (setup, "s"),
        "latency_mean_s": (statistics.fmean(c.wall_s for c in ok), "s"),
        "ops_per_s": (len(ok) / elapsed, "1/s"),
        "cpu_s_per_op": (sum(c.cpu_s for c in ok) / len(ok), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return _result(problems, attempted, failed, metrics)


def _import_times() -> tuple[float, float]:
    """Cumulative `-X importtime` seconds of zpmomentum and scipy.integrate."""
    zp, scipy_int = [], []
    for _ in range(3):
        child = run_child(["-X", "importtime", "-c", "import zpmomentum"])
        cumulative = {}
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        zp.append(cumulative["zpmomentum"])
        scipy_int.append(cumulative.get("scipy.integrate", 0.0))
    return statistics.median(zp), statistics.median(scipy_int)


def _stage(name: str, spec: dict, trace_dir: Path) -> dict:
    spec_path = trace_dir / f"{name}.spec.json"
    out_path = trace_dir / f"{name}.spans.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    child = run_child([str(LAYERS), name, str(spec_path), str(out_path)])
    if child.code != 0:
        raise RuntimeError(f"traced stage {name} failed:\n{child.stderr}")
    return json.loads(out_path.read_text())


def _durations(spans: list[dict], name: str) -> dict[int, float]:
    """Total time of the spans called name, per op."""
    per_op: dict[int, float] = {}
    for s in spans:
        if s["name"] == name:
            per_op[s["op"]] = per_op.get(s["op"], 0.0) + s["end"] - s["start"]
    return per_op


def _op_median(spans: list[dict], op: str, name: str) -> float:
    ops = {s["op"] for s in spans if s["name"] == "op:" + op}
    per_op = _durations(spans, name)
    return statistics.median(per_op[o] for o in ops)


def traced_run(workload: str, seed: int, trace_dir: Path) -> dict:
    """Per-layer figures from traced stages, each in a fresh interpreter."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    first = next(WORKLOADS[workload](random.Random(seed), seed, inputs))[0]
    dipole = next(closed_form_rounds(random.Random(seed), seed, inputs))[2].params
    freq = next(freq_rounds(random.Random(seed), seed, inputs))[0].params
    zp_import, scipy_import = _import_times()
    stages = {
        "layers": _stage("layers", {"freq_seed": freq["seed"], "dipole": {
            "alpha": dipole["alpha"] * 1e6, "alpha0": dipole["alpha0"] * 1e6,
            "gamma": dipole["gamma"] * 1e2}}, trace_dir),
        "reconciled": _stage("reconciled", {}, trace_dir),
        "cli": _stage("cli", {"argv": first.argv}, trace_dir),
    }
    spans = [dict(s, stage=name) for name, st in stages.items()
             for s in st["spans"]]
    (trace_dir / "trace.json").write_text(json.dumps(spans))

    lay = stages["layers"]["spans"]
    coarse = _op_median(lay, "passes_coarse", "oscillatory_integrals.eval_bruteforce")
    fine = _op_median(lay, "pass_fine", "oscillatory_integrals.eval_bruteforce")
    nodes = stages["layers"]["values"]["pass_nodes"]
    compare = "contour_frequency.compare"
    cli_exit = stages["cli"]["values"]["exit"]
    problems = [] if cli_exit else check_output(
        first, stages["cli"]["values"]["stdout"])[0]
    metrics = {
        "import.zpmomentum_s": (zp_import, "s"),
        "import.scipy_integrate_s": (scipy_import, "s"),
        "special_functions.sph_bessel_j_s": (
            _op_median(lay, "bessel", "special_functions.sph_bessel_j"), "s"),
        "oscillatory_integrals.trig_s": (
            _op_median(lay, "trig", "oscillatory_integrals.eval_trig"), "s"),
        "oscillatory_integrals.passes_coarse_s": (coarse, "s"),
        "oscillatory_integrals.pass_fine_s": (fine, "s"),
        "oscillatory_integrals.pairs_per_s": (
            sum(n * n for n in nodes) / (coarse + fine), "pairs/s"),
        "oscillatory_integrals.pass_fine_peak_mb": (
            stages["layers"]["values"]["pass_fine_peak_bytes"] / 2 ** 20, "MiB"),
        "oscillatory_integrals.reconciled_s": (
            _op_median(stages["reconciled"]["spans"], "reconciled",
                       "oscillatory_integrals.reconciled_constants"), "s"),
        "tensor_assembly.eta_s": (
            _op_median(lay, "eta", "tensor_assembly.eta"), "s"),
        "tensor_assembly.second_born_s": (
            _op_median(lay, "second_born",
                       "tensor_assembly.second_born_momentum"), "s"),
        "predictions.me_sphere_s": (
            _op_median(lay, "me_sphere", "predictions.me_sphere_velocity"), "s"),
        "contour_frequency.compare_s.transverse": (
            _op_median(lay, "compare.transverse", compare), "s"),
        "contour_frequency.compare_s.one_longitudinal": (
            _op_median(lay, "compare.one_longitudinal", compare), "s"),
        "contour_frequency.compare_calls": (
            sum(1 for s in lay if s["name"] == compare), "count"),
        "point_dipole.spectral_quadrature_s": (
            _op_median(lay, "dipole",
                       "point_dipole.spectral_integral_quadrature"), "s"),
        "cli.main_s": (
            _op_median(stages["cli"]["spans"], "cli", "cli.main"), "s"),
    }
    attempted = sum(1 for s in spans if s["parent"] is None)
    return _result(problems, attempted, int(cli_exit != 0), metrics)


def _result(problems, attempted, failed, metrics) -> dict:
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        result = traced_run(workload, seed, WORK / "traces" / tag)
    else:
        result = timed_run(workload, seed, seconds)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "zpmomentum" / "__init__.py", SCHEMA)
               if not p.is_file()]
    if missing:
        print(f"not a zpmomentum checkout: missing {missing}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
