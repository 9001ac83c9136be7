#!/usr/bin/env python3
"""Run the full check suite over every shipped fixture and print a summary.

Sweeps every fixtures/*.json in name order and writes one JSON report per
fixture into reports/ (created next to this script's repository root).  A
fixture whose spec does not load (a malformed field) or whose metric
cannot be evaluated on the grid (inadmissible, a field outside its domain
or not finite, a point outside the box, a singular inverse) is reported as
such on its own line rather than crashing the sweep.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's circgeo, installed or not

from circgeo.core import (
    AdmissibilityError,
    OutsideDomainError,
    SingularMetricError,
    load_spec,
)
from circgeo.expr import DomainError, ParseError
from circgeo.verify import run_suite, write_report

GRID = 3
SEED = 0


def main() -> None:
    out_dir = ROOT / "reports"
    out_dir.mkdir(exist_ok=True)
    for fixture in sorted((ROOT / "fixtures").glob("*.json")):
        name = fixture.stem
        try:
            spec = load_spec(fixture)
            points = spec.domain.grid(GRID)
            report = run_suite(spec, points, seed=SEED, mu_samples=20, sectional_samples=20)
        except (
            AdmissibilityError,
            DomainError,
            OutsideDomainError,
            ParseError,
            SingularMetricError,
        ) as exc:
            print(f"{name:12s} {type(exc).__name__}: {exc}")
            continue
        path = out_dir / f"{name}.json"
        write_report(report, path)
        counts = Counter(check["status"] for check in report["checks"])
        print(
            f"{name:12s} checks={len(report['checks']):4d} "
            f"pass={counts.get('pass', 0):4d} fail={counts.get('fail', 0):4d} "
            f"skipped={counts.get('skipped', 0):4d} -> {path.relative_to(ROOT)}"
        )


if __name__ == "__main__":
    main()
