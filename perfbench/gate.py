"""Known-answer gate for one CLI invocation of a workload.

The expected verdicts follow from the fixtures' analytic structure, not from
circgeo itself: curved-par satisfies the gradient conditions everywhere, so
on `verify-curved` every entry passes, and the parallel scan finds both
predicates true at every point and no disagreement.  Either way the command
exits 0.

A verdict is only as good as the tolerance and the work behind it, so the
gate also holds every entry to the tolerances and sample counts fixed below
(the program's defaults when the benchmark was defined), re-applies
`residual / max(1, scale) <= tolerance` to the residuals the report
carries, and re-derives the mu-law residual from the cases it lists.

`problems()` returns a list of mismatches; an empty list means correct.
"""

from __future__ import annotations

import itertools
import json
import math
import re

from workloads import Workload

EXIT_OK = 0

PER_POINT_CHECKS = (
    "isometry",
    "parallel-condition",
    "curvature-identity",
    "integrability",
    "sectional-relations",
    "mu-law",
)

TOLERANCES = {
    "isometry": 1e-14,
    "parallel-condition": 1e-10,
    "parallel-equivalence": 0.0,
    "curvature-identity": 1e-9,
    "integrability": 1e-9,
    "sectional-relations": 1e-9,
    "mu-law": 1e-9,
}
GRADIENT_TOLERANCE = 1e-10  # parallel-equivalence, per point
NABLA_Q_TOLERANCE = 1e-9

RESIDUAL_NAMES = {
    "isometry": {"q1", "q2", "q3"},
    "parallel-condition": {
        "A1-C3", "A2-C4", "A3-C1", "A4-C2", "B1-B3", "B2-B4", "2B1-C2-C4", "2B2-C1-C3",
    },
    "curvature-identity": {"max"},
    "integrability": {"primary"},
    "sectional-relations": {"ring_spread", "mu_x_q2x", "mu_qx_q3x"},
    "mu-law": {"expansion_max"},
    "parallel-equivalence": {"disagreements"},
}

# The work behind a verdict: samples, vectors and cases per entry.
ISOMETRY_SAMPLES = 1000
SECTIONAL_VECTORS = 50
MU_CASES = 100

_VERDICT_LINE = re.compile(r"^\[\s*(pass|fail|skipped)\] (\S+)")


class NonFiniteJSON(ValueError):
    pass


def _reject_constant(name: str):
    raise NonFiniteJSON(f"non-finite number {name} in the report")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise NonFiniteJSON(f"number {text} overflows to {value}")
    return value


def strict_loads(data: bytes):
    """Parse JSON, refusing NaN, +-Infinity and numbers that overflow."""
    return json.loads(
        data.decode("utf-8"), parse_constant=_reject_constant, parse_float=_finite_float
    )


def expected_grid(spec: dict, n: int) -> list[tuple[float, ...]]:
    """Grid points in the CLI's order (x1 slowest), endpoints included."""
    lo, hi = spec["domain"]["min"], spec["domain"]["max"]
    axes = [
        [lo[k] + (hi[k] - lo[k]) * i / (n - 1) for i in range(n)] if n > 1 else [lo[k]]
        for k in range(4)
    ]
    return list(itertools.product(*axes))


def _same_point(got, want) -> bool:
    return (
        isinstance(got, list)
        and len(got) == 4
        and all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
    )


def problems(
    workload: Workload, spec: dict, exit_code: int, stdout: str, report_bytes: bytes
) -> list[str]:
    """Mismatches between one invocation's output and the known answer."""
    found = []
    if exit_code != EXIT_OK:
        found.append(f"exit code {exit_code}, expected {EXIT_OK}")
    try:
        report = strict_loads(report_bytes)
    except (ValueError, UnicodeDecodeError) as exc:
        return found + [f"report is not strict JSON: {exc}"]
    grid = expected_grid(spec, workload.grid)
    check = _check_verify if workload.command == "verify" else _check_scan
    try:
        found += check(workload, spec, grid, report, stdout)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        found.append(f"report has an unexpected shape: {type(exc).__name__}: {exc}")
    return found[:20]


def _entry_problems(entry: dict) -> list[str]:
    """A passing entry at the fixed tolerance, with the fixed amount of work."""
    name, payload = entry["name"], entry["payload"]
    where = f"{name} @ {entry['point']}"
    found = []
    if entry["status"] != "pass":
        found.append(f"{where} is {entry['status']}, expected pass")
    if entry["tolerance"] != TOLERANCES[name]:
        found.append(f"{where} has tolerance {entry['tolerance']}, expected {TOLERANCES[name]}")
    residuals, scales = entry["residuals"], payload["scales"]
    if set(residuals) != RESIDUAL_NAMES[name] or set(scales) != RESIDUAL_NAMES[name]:
        found.append(f"{where} reports residuals {sorted(residuals)} and scales {sorted(scales)}")
    for key in residuals.keys() & scales.keys():
        if residuals[key] / max(1.0, scales[key]) > TOLERANCES[name]:
            found.append(f"{where} residual {key}={residuals[key]!r} exceeds the tolerance")
    if name == "isometry" and payload["samples"] != ISOMETRY_SAMPLES:
        found.append(f"{where} drew {payload['samples']} samples, expected {ISOMETRY_SAMPLES}")
    if name == "sectional-relations" and payload["vectors"] != SECTIONAL_VECTORS:
        found.append(f"{where} used {payload['vectors']} vectors, expected {SECTIONAL_VECTORS}")
    if name == "mu-law":
        cases = payload["cases"]
        if len(cases) != MU_CASES:
            found.append(f"{where} lists {len(cases)} cases, expected {MU_CASES}")
        worst = max(
            (abs(c["direct"] - c["expansion_prediction"]) for c in cases if c["q_basis"]),
            default=0.0,
        )
        if worst / max(1.0, scales["expansion_max"]) > TOLERANCES[name]:
            found.append(f"{where} has a case off the expansion law by {worst!r}")
    if name == "parallel-equivalence":
        found += _equivalence_problems(entry)
    return found


def _equivalence_problems(entry: dict) -> list[str]:
    """Both predicates hold at every row, at the fixed per-point tolerances."""
    payload = entry["payload"]
    found = []
    if (payload["gradient_tolerance"], payload["nabla_q_tolerance"]) != (
        GRADIENT_TOLERANCE,
        NABLA_Q_TOLERANCE,
    ):
        found.append("parallel-equivalence per-point tolerances differ")
    for idx, row in enumerate(payload["points"]):
        if row["gradient_holds"] is not True or row["parallel_holds"] is not True:
            found.append(f"row {idx} holds=({row['gradient_holds']}, {row['parallel_holds']})")
        elif not (
            row["gradient_residual_scaled"] <= min(row["gradient_residual"], GRADIENT_TOLERANCE)
            and row["nabla_q_residual_scaled"] <= min(row["nabla_q_residual"], NABLA_Q_TOLERANCE)
        ):
            found.append(f"row {idx} residuals exceed the per-point tolerances")
    return found


def _rows_problems(rows: list, grid: list) -> list[str]:
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    return [
        f"row {idx} at {row['point']}, expected {list(point)}"
        for idx, (row, point) in enumerate(zip(rows, grid))
        if not _same_point(row["point"], point)
    ]


def _check_verify(workload, spec, grid, report, stdout) -> list[str]:
    found = []
    if report["spec"] != spec["name"]:
        found.append(f"spec name {report['spec']!r}")
    entries = report["checks"]
    want_len = len(PER_POINT_CHECKS) * len(grid) + 1
    if len(entries) != want_len:
        return found + [f"{len(entries)} entries, expected {want_len}"]
    for idx, entry in enumerate(entries[:-1]):
        name = PER_POINT_CHECKS[idx % len(PER_POINT_CHECKS)]
        point = grid[idx // len(PER_POINT_CHECKS)]
        if entry["name"] != name or not _same_point(entry["point"], point):
            found.append(f"entry {idx} is {entry['name']} @ {entry['point']}, expected {name} @ {list(point)}")
        else:
            found += _entry_problems(entry)
    last = entries[-1]
    if last["name"] != "parallel-equivalence" or last["point"] is not None:
        found.append(f"last entry is {last['name']} @ {last['point']}, expected parallel-equivalence")
    else:
        found += _entry_problems(last) + _rows_problems(last["payload"]["points"], grid)
    table = [m.groups() for m in map(_VERDICT_LINE.match, stdout.splitlines()) if m]
    if table != [(e["status"], e["name"]) for e in entries]:
        found.append("printed verdict table differs from the JSON report")
    return found


def _check_scan(workload, spec, grid, report, stdout) -> list[str]:
    found = []
    inner = report["report"]
    if (report["command"], report["spec"], report["check"], report["grid"]) != (
        "scan",
        spec["name"],
        "parallel",
        workload.grid,
    ):
        found.append("scan header differs")
    if inner["name"] != "parallel-equivalence" or inner["point"] is not None:
        found.append(f"scan entry is {inner['name']} @ {inner['point']}")
    else:
        found += _entry_problems(inner) + _rows_problems(inner["payload"]["points"], grid)
    lines = stdout.splitlines()
    if not lines or "-> pass (disagreements: 0.0)" not in lines[0]:
        found.append("printed scan verdict differs")
    if sum("holds=(True, True)" in line for line in lines) != len(grid):
        found.append("printed scan rows differ")
    return found
