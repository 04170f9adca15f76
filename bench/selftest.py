"""Self-test of the output checks: each must be able to fail.

    python3 bench/selftest.py

Runs one invocation of every operation kind in this process through
zpmomentum.cli.main (about 25 s, nearly all of it the first regulated pass),
then requires, for every report:

  * the genuine report passes its check;
  * every nonzero result value moved by 1e-6 relative, up or down, is
    rejected, and every zero result value replaced by the smallest subnormal
    is rejected;
  * a NaN in any result value is rejected, both as report text (strict JSON)
    and when handed to the check directly.

It also requires the predict invariant to hold across the three predict
kinds and to reject one of them moved by 1e-6.  Exits 0 when every check
passed and every perturbation was caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import sys

import checks
import run

SEED = 1


def one_op_per_kind() -> list[run.Op]:
    inputs = run.WORK / "selftest"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for seed in range(3):  # the predict cycle starts at seed % 3
        ops.append(next(run.predict_rounds(random.Random(SEED), seed, inputs))[0])
    for workload in ("constants", "freq-check", "closed-form"):
        ops += next(run.WORKLOADS[workload](random.Random(SEED), SEED, inputs))
    return ops


def invoke(argv: list[str]) -> tuple[int, str]:
    from zpmomentum import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def rejected(op: run.Op, report: dict, as_text: bool) -> bool:
    if as_text:
        try:
            report = checks.parse_report(json.dumps(report), run.SCHEMA)
        except ValueError:
            return True
    return bool(checks.CHECKS[op.kind](op.params, report))


def variants(report: dict):
    """(label, perturbed report) for every result value."""
    for i, row in enumerate(report["results"]):
        v = row["value"]
        moves = ([("x(1+1e-6)", v * (1 + 1e-6)), ("x(1-1e-6)", v * (1 - 1e-6))]
                 if v != 0.0 else [("5e-324", 5e-324)])
        for label, new in moves + [("NaN", math.nan)]:
            bad = copy.deepcopy(report)
            bad["results"][i]["value"] = new
            yield f"row {i} {row['name']} {label}", bad


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(run.CHILD_THREADS))
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    caught = 0
    invariants = []
    for op in one_op_per_kind():
        code, text = invoke(op.argv)
        if code != 0:
            # the atomic dipole exits 3 on the program's fault (CHANGES.md)
            if op.params != run.ATOMIC_DIPOLE:
                failures.append(f"{op.kind} exited {code}")
            continue
        report = checks.parse_report(text, run.SCHEMA)
        problems = checks.CHECKS[op.kind](op.params, report)
        if problems:
            failures.append(f"{op.kind}: genuine report rejected: {problems[:3]}")
            continue
        if op.kind in run.PREDICT_KINDS:
            invariants.append(checks.predict_invariant(op.kind, op.params, report))
        for label, bad in variants(report):
            for as_text in (True, False):
                if rejected(op, bad, as_text):
                    caught += 1
                else:
                    failures.append(f"{op.kind}: {label} passed "
                                    f"({'text' if as_text else 'parsed'})")
    if len(invariants) != 3 or checks.check_invariant(invariants):
        failures.append(f"predict invariant: {invariants}")
    elif not checks.check_invariant(invariants[:2] + [invariants[2] * (1 + 1e-6)]):
        failures.append("predict invariant accepts a 1e-6 change")
    for f in failures:
        print(f"FAIL {f}")
    print(f"{caught} perturbed reports rejected, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
