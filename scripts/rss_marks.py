#!/usr/bin/env python3
"""Print the resident memory of one `verify` run, phase by phase.

    PYTHONPATH=src python3 scripts/rss_marks.py fixtures/curved-par.json --grid 3

Runs what `circgeo verify SPEC --grid N --json PATH` runs, in this process,
and after each phase (import, `run_suite`, rendering the verdict table,
writing the JSON report) prints the peak RSS so far (`ru_maxrss`) and the
current RSS (`/proc/self/statm`, Linux only), in MB.  The table goes to
/dev/null and the report to a temporary file, which is deleted; its size is
printed last.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import tempfile


def _mark(phase: str) -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/statm") as f:
            current = f"{int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20:8.1f}"
    except OSError:
        current = "       -"
    print(f"{phase:<10} {peak:8.1f} {current}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="path to a manifold spec JSON file")
    parser.add_argument("--grid", type=int, default=3, metavar="N", help="samples per axis")
    args = parser.parse_args()

    print(f"{'phase':<10} {'peak MB':>8} {'now MB':>8}")
    from circgeo.cli import _emit, _render_verify
    from circgeo.core import load_spec
    from circgeo.verify import run_suite

    _mark("import")
    spec = load_spec(args.spec)
    report = run_suite(spec, spec.domain.grid(args.grid))
    _mark("run_suite")
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        _emit(report, None, _render_verify)
    _mark("render")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        _emit(report, path, lambda rep: None)
        _mark("write")
        size = os.path.getsize(path)
    print(f"report: {size} bytes", file=sys.stderr)


if __name__ == "__main__":
    main()
