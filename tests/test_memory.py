"""Transient memory of `verify`: bounded by a pass of work, not by the grid.

tracemalloc sees numpy's buffers as well as Python objects, so a traced
peak is the largest the suite or the writer held at once.
"""

import tracemalloc

import circgeo._floattext  # noqa: F401  (its tables are made at import, not in a write)
from circgeo.verify import report_to_json, run_suite, write_report

# Measured on curved-par at grid 3 (81 points, seed 0, numpy 2.4): run_suite
# peaks at +3.6 MB in a fresh process and +2.8 MB after (the report it
# returns holds 1.4 MB); writing that report to a file peaks at +4.6 MB.  Before the sampled checks
# ran over runs of a few points and the report was streamed to its file, the
# peaks were +16.1 MB and +11.6 MB.
RUN_SUITE_PEAK_MB = 5.0
WRITE_PEAK_MB = 7.0


def _traced(fn):
    """fn(), and the traced peak over the call in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_verify_transient_memory_stays_bounded(curved_par, tmp_path):
    points = curved_par.domain.grid(3)
    report, suite_peak = _traced(lambda: run_suite(curved_par, points))
    _, write_peak = _traced(lambda: write_report(report, tmp_path / "report.json"))
    assert (tmp_path / "report.json").read_text() == report_to_json(report)
    assert suite_peak < RUN_SUITE_PEAK_MB, suite_peak
    assert write_peak < WRITE_PEAK_MB, write_peak
