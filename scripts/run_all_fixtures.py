#!/usr/bin/env python3
"""Run the full check suite over every shipped fixture and print a summary.

Writes one JSON report per fixture into reports/ (created next to this
script's repository root).  A fixture whose metric cannot be evaluated on
the grid (inadmissible, a field outside its domain or not finite, a point
outside the box, a singular inverse) is reported as such rather than
crashing the sweep.
"""

from collections import Counter
from pathlib import Path

from circgeo.core import (
    AdmissibilityError,
    OutsideDomainError,
    SingularMetricError,
    load_spec,
)
from circgeo.expr import DomainError
from circgeo.verify import run_suite, write_report

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ["const", "flat-par", "curved-par", "nonpar"]
GRID = 3
SEED = 0


def main() -> None:
    out_dir = ROOT / "reports"
    out_dir.mkdir(exist_ok=True)
    for name in FIXTURES:
        spec = load_spec(ROOT / "fixtures" / f"{name}.json")
        points = spec.domain.grid(GRID)
        try:
            report = run_suite(spec, points, seed=SEED, mu_samples=20, sectional_samples=20)
        except (AdmissibilityError, DomainError, OutsideDomainError, SingularMetricError) as exc:
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
