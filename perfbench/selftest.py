"""Negative self-test of the known-answer gate.

    python3 perfbench/selftest.py

Runs every workload once through the real CLI (seed SEED) and requires the
gate to accept the output.  Then it feeds the gate corrupted copies of each
output: one verdict flipped, one residual replaced by NaN, a wrong exit
code, a loosened tolerance, less work behind a verdict, and a residual above
its tolerance under a "pass" verdict.  It exits 0 only if the genuine
outputs pass and every corruption is caught.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from gate import EXIT_OK, problems
from run import ROOT, WORK, spawn
from workloads import WORKLOADS

SEED = 0


def _entry(report: dict, name: str) -> dict:
    """The first entry of the report called name (the scan has just one)."""
    if "checks" not in report:
        return report["report"]
    return next(e for e in report["checks"] if e["name"] == name)


def flip_one_verdict(report: dict) -> dict:
    if "checks" in report:
        entry = report["checks"][len(report["checks"]) // 2]
        entry["status"] = "fail" if entry["status"] != "fail" else "pass"
    else:
        row = report["report"]["payload"]["points"][-1]
        row["parallel_holds"] = not row["parallel_holds"]
    return report


def inject_nan(report: dict) -> dict:
    if "checks" in report:
        report["checks"][0]["residuals"]["q1"] = float("nan")
    else:
        report["report"]["payload"]["points"][0]["nabla_q_residual"] = float("nan")
    return report


def loosen_tolerance(report: dict) -> dict:
    _entry(report, "isometry")["tolerance"] = 1e-6
    return report


def cut_work(report: dict) -> dict:
    if "checks" in report:
        _entry(report, "sectional-relations")["payload"]["vectors"] = 10
    else:
        report["report"]["payload"]["points"].pop()
    return report


def residual_over_tolerance(report: dict) -> dict:
    entry = _entry(report, "curvature-identity")
    key = next(iter(entry["residuals"]))
    entry["residuals"][key] = 1e-3 * max(1.0, entry["payload"]["scales"][key])
    return report


CORRUPTIONS = {
    "flipped verdict": flip_one_verdict,
    "NaN residual": inject_nan,
    "loosened tolerance": loosen_tolerance,
    "less work": cut_work,
    "residual over tolerance": residual_over_tolerance,
}


def main() -> int:
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in WORKLOADS.values():
        spec = json.loads(Path(workload.spec).read_text())
        report_path = WORK / f"selftest-{workload.name}.json"
        stdout_path = WORK / f"selftest-{workload.name}.stdout"
        _, exit_code, _ = spawn(
            ["-m", "circgeo", *workload.argv(SEED, str(report_path))], stdout_path
        )
        stdout, raw = stdout_path.read_text(), report_path.read_bytes()

        def serialise(report: dict) -> bytes:
            return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()

        cases = {
            "genuine output": (exit_code, raw, False),
            "wrong exit code": (EXIT_OK + 1, raw, True),
        }
        for label, corrupt in CORRUPTIONS.items():
            cases[label] = (exit_code, serialise(corrupt(json.loads(raw))), True)
        for label, (code, report, should_fail) in cases.items():
            found = problems(workload, spec, code, stdout, report)
            good = bool(found) == should_fail
            ok &= good
            detail = found[0] if found else "no mismatch"
            print(f"{'PASS' if good else 'FAIL'} {workload.name}: {label}: {detail}")
    print("gate self-test passed" if ok else "gate self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
