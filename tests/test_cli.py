"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from circgeo import _floattext, cli
from circgeo.cli import main
from circgeo.core import Q, AdmissibilityError, Box, MetricAtPoint, load_spec, metric_at
from circgeo.expr import DomainError, ParseError, eval_jets, unparse
from circgeo.tensor import (
    DegeneratePlaneError,
    christoffel_from_metric,
    riemann_from_christoffel,
    sectional_curvature,
)
from circgeo.verify import run_suite

from conftest import child_env, fixture_path
from oracles import report_to_json_reference, scan_stdout_reference
from test_expr import _ast_strategy

CURVED = str(fixture_path("curved-par"))
NONPAR = str(fixture_path("nonpar"))
BAD_ORDER = str(fixture_path("bad-order"))
BAD_FIELD = str(fixture_path("bad-field"))
CONST = str(fixture_path("const"))
FLAT = str(fixture_path("flat-par"))


def test_validate_passes_on_curved_par():
    assert main(["validate", CURVED, "--grid", "3"]) == 0


def test_validate_bad_order_exits_3(capsys):
    assert main(["validate", BAD_ORDER]) == 3


def test_verify_curved_par_point(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", CURVED, "--point", "0,0,0,0", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = {check["name"] for check in report["checks"]}
    assert {
        "parallel-condition",
        "parallel-equivalence",
        "curvature-identity",
        "integrability",
        "sectional-relations",
        "mu-law",
        "isometry",
    } <= names
    assert all(check["status"] in ("pass", "skipped") for check in report["checks"])


def test_verify_nonpar_fails(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", NONPAR, "--point", "1,0,0,0", "--json", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    parallel = next(
        c for c in report["checks"] if c["name"] == "parallel-condition"
    )
    assert parallel["status"] == "fail"
    assert abs(parallel["residuals"]["A1-C3"] - 2.0) <= 1e-12


def test_verify_human_output_numbers_appear_in_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify", NONPAR, "--point", "1,0,0,0", "--json", str(out)])
    printed = capsys.readouterr().out
    assert "A1-C3=2.0" in printed
    assert "2.0" in out.read_text()


def test_verify_grid_subset():
    code = main(
        [
            "verify",
            CURVED,
            "--grid",
            "2",
            "--checks",
            "isometry,parallel-condition,parallel-equivalence",
        ]
    )
    assert code == 0


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", CURVED, "--point", "0,0,0,0", "--checks", "bogus"]) == 2


def test_verify_unknown_tolerance_exits_2(capsys):
    assert (
        main(["verify", CURVED, "--point", "0,0,0,0", "--tol", "bogus=1"]) == 2
    )


def test_verify_tolerance_override_flips_verdict():
    assert main(["verify", NONPAR, "--point", "1,0,0,0",
                 "--checks", "parallel-condition"]) == 1
    assert (
        main(
            [
                "verify",
                NONPAR,
                "--point",
                "1,0,0,0",
                "--checks",
                "parallel-condition",
                "--tol",
                "parallel-condition=10",
            ]
        )
        == 0
    )


def test_verify_parallel_equivalence_tolerance_override(tmp_path):
    # Loosening the gradient tolerance alone makes the two predicates
    # disagree at this point (one disagreement against tolerance 0) ...
    argv = ["verify", NONPAR, "--point", "1,0,0,0", "--checks", "parallel-equivalence"]
    argv += ["--tol", "parallel-condition=10"]
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 1
    (entry,) = json.loads(out.read_text())["checks"]
    assert (entry["tolerance"], entry["residuals"]["disagreements"]) == (0.0, 1.0)
    # ... which the overridden equivalence tolerance then admits.
    assert main([*argv, "--tol", "parallel-equivalence=5", "--json", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["checks"]
    assert (entry["tolerance"], entry["status"]) == (5.0, "pass")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_non_finite_or_negative_tolerance(tmp_path, capsys, value):
    # NaN or inf would pass every entry (residual > nan is false), -1 fail every one.
    out = tmp_path / "err.json"
    argv = ["verify", NONPAR, "--point", "1,0,0,0", "--tol", f"parallel-condition={value}"]
    assert main(argv + ["--json", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""  # no check ran
    assert err.count("\n") == 1 and "must be finite and >= 0" in err
    assert json.loads(out.read_text())["error"]["type"] == "ValueError"


def test_bad_point_exits_2(capsys):
    assert main(["verify", CURVED, "--point", "1,2,3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --point: a point needs 4 comma-separated values, got '1,2,3'\n"


@pytest.mark.parametrize("command", ["verify", "metric", "christoffel", "curvature", "basis"])
@pytest.mark.parametrize("point", ["-0.5,0,0,0", "-0.0,0.25,-1,0.5", "-2,0,0,0"])
def test_negative_point_reads_the_same_with_or_without_equals(tmp_path, capsys, command, point):
    # -2,0,0,0 lies outside the domain: exit 3 either way.
    runs = []
    for argv in (["--point", point], [f"--point={point}"]):
        out = tmp_path / f"{len(runs)}.json"
        code = main([command, CURVED, *argv, "--seed", "2", "--json", str(out)])
        runs.append((code, *capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (3 if point.startswith("-2") else 0)


def test_an_option_after_point_is_still_a_missing_value(capsys):
    assert main(["verify", CURVED, "--point", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: argument --point: expected one argument\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--point", "0,0,0"],  # three coordinates
        ["--point", "0,0,0,0", "--tol", "mu-law"],  # no =VALUE
        ["--point", "0,0,0,0", "--tol", "mu-law=abc"],
        ["--point", "0,0,0,0", "--seed", "x"],
        ["--point", "0,0,0,0", "--grid", "2"],  # mutually exclusive
        ["--point", "0,0,0,0", "--checks", ",,"],  # an empty selection
        ["--point", "0,0,0,0", "--checks", ""],
        ["--point", "0,0,0,0", "--bogus"],
        [],  # neither --point nor --grid
    ],
)
def test_usage_errors_are_one_line_and_replace_the_report(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    out.write_text('{"stale": true}')
    assert main(["verify", CURVED, *args, "--json", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.count("\n") == 1 and err.startswith("error: ")
    if "--checks" in args:
        assert "--checks names no check" in err
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "UsageError", "message": err[len("error: ") : -1]}


@pytest.mark.parametrize("argv", [[], ["nope"], ["scan", CURVED, "--grid", "2", "--check", "x"]])
def test_usage_errors_without_json_path(capsys, argv):
    assert main(argv) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.count("\n") == 1 and err.startswith("error: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    assert "--checks" in capsys.readouterr().out


def test_zero_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    for command in (["validate"], ["verify"], ["scan", "--check", "parallel"]):
        for grid in ("0", "-2"):
            assert main([command[0], CURVED, *command[1:], "--grid", grid, "--json", str(out)]) == 2
            message = f"argument --grid: expected an integer >= 1, got '{grid}'"
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert json.loads(out.read_text()) == {"error": {"type": "UsageError", "message": message}}


def test_missing_spec_exits_2(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", CURVED, "--point", "0,0,0,0"],  # the report's own write fails
        ["verify", CURVED, "--point", "0,0,0,0", "--bogus"],  # a usage error
        ["verify", "nope.json", "--point", "0,0,0,0"],  # a missing spec
    ],
)
def test_an_error_report_that_cannot_be_written_is_one_line_and_exit_2(argv, capsys, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    assert main([*argv, "--json", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"error report not written: [Errno 2] No such file or directory: '{missing}'" in err
    assert not missing.parent.exists()


def test_malformed_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "A": "x1 +", "B": "1", "C": "2", "domain": {"min": [0,0,0,0], "max": [1,1,1,1]}}')
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize(
    "key, source, says",
    [
        ("B", "0.5 +", "expected a number, coordinate, function or '(' (offset 5)"),
        ("A", "10 - 1.2.3*x1", "unexpected '.3' after expression (offset 8)"),
        ("C", "x1^" + "9" * 5000, "exponent of 5000 digits is too long (offset 3)"),
        ("A", "4 + 0*x1^" + "9" * 155, "exponent of 155 digits is too large (offset 9)"),
    ],
    ids=["B", "A", "C", "A-exponent"],
)
def test_a_malformed_field_is_a_parse_error_naming_the_field(tmp_path, capsys, key, source, says):
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    fields = {"A": "4", "B": "1", "C": "2", key: source}
    spec.write_text(json.dumps({"name": "x", **fields, "domain": {"min": [-1] * 4, "max": [1] * 4}}))
    assert main(["validate", str(spec), "--json", str(out)]) == 2
    message = f"malformed manifold spec: field {key}: {says}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "ParseError", "message": message}}


def test_the_bad_field_fixture_exits_2(capsys):
    assert main(["verify", BAD_FIELD, "--grid", "2"]) == 2
    message = "malformed manifold spec: field B: unexpected '.5' after expression (offset 3)"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(ParseError) as err:
        load_spec(BAD_FIELD)
    assert err.value.offset == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", CONST, "--point=0,0,0,0"],
        ["basis", CONST, "--point=0,0,0,0"],
        ["scan", CONST, "--grid", "2", "--check", "parallel"],
    ],
)
def test_a_negative_seed_is_a_usage_error_naming_the_option(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--seed", "-1", "--json", str(out)]) == 2
    message = "argument --seed: expected an integer >= 0, got '-1'"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert json.loads(out.read_text()) == {"error": {"type": "UsageError", "message": message}}
    assert main([*argv, "--seed", "0"]) == 0


@pytest.mark.parametrize(
    "domain, says",
    [
        ({"min": [math.nan, -1, -1, -1], "max": [1] * 4}, "domain min must be four finite numbers"),
        ({"min": [-1] * 4, "max": [1, 1, math.inf, 1]}, "domain max must be four finite numbers"),
        ({"min": [[0, 0], [0, 0]], "max": [1] * 4}, "domain min must be four finite numbers"),
        ({"min": [-1] * 4, "max": [1, 1, 1]}, "domain max must be four finite numbers"),
        ({"min": ["a", 0, 0, 0], "max": [1] * 4}, "domain min must be four finite numbers"),
        ({"min": [-(10**400), 0, 0, 0], "max": [1] * 4}, "domain min must be four finite numbers"),
        ({"min": [-1e308] * 4, "max": [1e308] * 4}, "domain extent max - min overflows"),
    ],
)
def test_a_bad_domain_is_one_line_and_exit_2(tmp_path, capsys, domain, says):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "x", "A": "4", "B": "1", "C": "2", "domain": domain}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", str(spec), "--grid", "3"]) == 2
    assert not caught, [str(w.message) for w in caught]
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: malformed manifold spec: {says}")


def test_validate_records_what_metric_at_raises_at_each_point(tmp_path):
    # Points where log(x1 + 0.5) or 1/(x2 - 0.5) fails (DomainError) and
    # where 0 < B < C < A fails (AdmissibilityError), among admissible ones.
    spec = tmp_path / "spec.json"
    fields = {"A": "10 + log(x1 + 0.5)", "B": "1 + 0.1/(x2 - 0.5)", "C": "2 + 1.5*x3"}
    spec.write_text(json.dumps({"name": "mixed", **fields, "domain": {"min": [-1] * 4, "max": [1] * 4}}))
    loaded = load_spec(spec)
    raised = []
    for p in loaded.domain.grid(5):
        try:
            metric_at(loaded, p)
        except (AdmissibilityError, DomainError) as exc:
            raised.append((p.tolist(), str(exc)))
    kinds = {message.split(" ")[0] for _, message in raised}
    assert 0 < len(raised) < 625 and kinds == {"log", "division", "0"}, kinds
    out = tmp_path / "report.json"
    assert main(["validate", str(spec), "--grid", "5", "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    # Each reason is the message without its point, which the entry states once.
    bad = [(b["point"], f"{b['reason']} at point {b['point']}") for b in report["inadmissible"]]
    assert bad == raised and report["points_checked"] == 625


def test_out_of_domain_point_exits_3(capsys):
    assert main(["metric", CURVED, "--point", "5,0,0,0"]) == 3
    assert main(["verify", CURVED, "--point", "9,9,9,9"]) == 3


def test_metric_command(tmp_path, capsys):
    out = tmp_path / "metric.json"
    assert main(["metric", CONST, "--point", "0,0,0,0", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["minors"] == [4, 15, 44, 128]
    assert report["inverse"]["d"] == 64.0
    printed = capsys.readouterr().out
    assert "0.34375" in printed and "0.34375" in out.read_text()


def test_christoffel_command(tmp_path):
    out = tmp_path / "ch.json"
    assert main(["christoffel", CURVED, "--point", "0.3,-0.2,0.1,0.4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["nabla_q_max_abs"] <= 1e-9


def test_curvature_command(tmp_path):
    out = tmp_path / "r.json"
    assert main(["curvature", CURVED, "--point", "0,0,0,0", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["norm_inf"] - 0.2) <= 1e-12


def test_basis_command(tmp_path):
    out = tmp_path / "basis.json"
    assert main(["basis", CURVED, "--point", "0,0,0,0", "--seed", "4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert max(abs(v) for v in report["pairwise_products"].values()) <= 1e-10


def test_basis_on_ill_conditioned_metric_exits_3(tmp_path, capsys):
    # A - C = 1e-9: no q-basis is orthonormal to 1e-10 in floats.
    spec = _write_spec(tmp_path, "2.000000001")
    out = tmp_path / "err.json"
    assert main(["basis", spec, "--point", "0,0,0,0", "--json", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Gram residual" in err
    assert json.loads(out.read_text())["error"]["type"] == "SingularMetricError"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "const-micro", "--point", "0.1,0.2,0.3,0.4", "--checks", "sectional-relations"],
        ["basis", "near-equal", "--point", "0,0,0,0"],
        ["basis", "const-tiny", "--point", "0,0,0,0"],
        # The inverse and the Gram determinants are taken at a unit scale.
        ["metric", "const-tiny", "--point", "0,0,0,0"],
        ["christoffel", "const-tiny", "--point", "0,0,0,0"],
        ["curvature", "const-tiny", "--point", "0,0,0,0"],
        ["verify", "const-tiny", "--grid", "2"],
        ["verify", "const-tiny", "--grid", "3", "--seed", "7"],
        # Admissible, though every geometry command exits 3 on it (below).
        ["validate", "tiny-near-equal", "--grid", "3"],
    ],
)
def test_the_scaled_and_ill_conditioned_fixtures_exit_0(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], str(fixture_path(argv[1])), *argv[2:]]) == 0
    assert not caught and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--point=0,0,0,0"],
        ["christoffel", "--point=0,0,0,0"],
        ["curvature", "--point=0,0,0,0"],
        ["basis", "--point=0,0,0,0"],
        ["verify", "--grid", "2"],
        ["scan", "--grid", "2", "--check", "parallel"],
    ],
)
def test_the_tiny_ill_conditioned_fixture_exits_3(capsys, argv):
    # A - C is 1e-13 A at A = 1e-300: g^-1 overflows, and no q-basis is accurate.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], str(fixture_path("tiny-near-equal")), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert not caught and out == "" and err.count("\n") == 1
    assert ("Gram residual" if argv[0] == "basis" else "inverse overflows") in err


_LOG_EDGE_FIRST = [1.0, -1.0, -1.0, -1.0]  # the 55th of 81 grid points, the first with x1 = 1


@pytest.mark.parametrize(
    "spec,argv,kind,point",
    [
        ("log-edge", ["verify", "--grid", "3"], "DomainError", _LOG_EDGE_FIRST),
        ("log-edge", ["scan", "--check", "parallel", "--grid", "3"], "DomainError", _LOG_EDGE_FIRST),
        ("log-edge", ["metric", "--point=1,0,0,0"], "DomainError", [1.0, 0.0, 0.0, 0.0]),
        (("2.0000000000000004",), ["verify", "--grid", "2"], "DegeneratePlaneError", [-1.0] * 4),
        ("bad-order", ["metric", "--point=0,0,0,0"], "AdmissibilityError", [0.0] * 4),
        ("bad-order", ["verify", "--grid", "2"], "AdmissibilityError", [-1.0] * 4),
        ("const", ["curvature", "--point=5,0,0,0"], "OutsideDomainError", [5.0, 0.0, 0.0, 0.0]),
        # The inverse overflows, at one point and in a block.
        ("const-subnormal", ["metric", "--point=0,0,0,0"], "SingularMetricError", [0.0] * 4),
        ("const-subnormal", ["verify", "--grid", "2"], "SingularMetricError", [-1.0] * 4),
        # No q-basis is accurate, and leading minor 4 overflows.
        (("2.000000001",), ["basis", "--point=0.5,0,0,0"], "SingularMetricError", [0.5, 0.0, 0.0, 0.0]),
        (("4e80", "1e80", "2e80"), ["metric", "--point=0,0,0,0"], "SingularMetricError", [0.0] * 4),
        ("const", ["metric", "--point=nan,0,0,0"], "ValueError", [math.nan, 0.0, 0.0, 0.0]),
    ],
)
def test_an_error_about_one_point_names_it_once(tmp_path, capsys, spec, argv, kind, point):
    path = str(fixture_path(spec)) if isinstance(spec, str) else _write_spec(tmp_path, *spec)
    out = tmp_path / "err.json"
    assert main([argv[0], path, *argv[1:], "--json", str(out)]) in (2, 3)
    error = json.loads(out.read_text())["error"]
    assert error["type"] == kind and capsys.readouterr().err == f"error: {error['message']}\n"
    message = error["message"]
    assert message.endswith(f" at point {point}") and message.count(" at point ") == 1


def test_the_library_names_a_failing_point_once_and_validate_never(tmp_path):
    log_edge = load_spec(fixture_path("log-edge"))
    xs, inf_point = log_edge.domain.grid(3), [0.0, math.inf, 0.0, 0.0]
    with pytest.raises(DomainError) as jets:
        eval_jets(log_edge.A, xs)
    with pytest.raises(ValueError) as not_finite:
        metric_at(log_edge, inf_point)
    for exc, point in ((jets.value, _LOG_EDGE_FIRST), (not_finite.value, inf_point)):
        assert str(exc).endswith(f" at point {point}") and str(exc).count(" at point ") == 1
    # A metric built from constants has no point to name.
    m = MetricAtPoint.from_constants(4.0, 1.0, 2.0)
    with pytest.raises(DegeneratePlaneError) as constant:
        sectional_curvature(riemann_from_christoffel(m, christoffel_from_metric(m)), m, Q[0], Q[0])
    assert "at point" not in str(constant.value)
    # validate states each point once, under "point".
    out = tmp_path / "validate.json"
    assert main(["validate", str(fixture_path("log-edge")), "--grid", "3", "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    bad = report["inadmissible"]
    assert len(bad) == 27 and bad[0]["point"] == _LOG_EDGE_FIRST
    assert not any("at point" in entry["reason"] for entry in bad)


def test_a_degenerate_sampled_plane_exits_3(tmp_path, capsys):
    # A - C is one ulp of 2: the suite's sampled planes are degenerate under g.
    spec = _write_spec(tmp_path, "2.0000000000000004")
    assert main(["verify", spec, "--grid", "2"]) == 3
    out, err = capsys.readouterr()
    message = "vectors span no 2-plane (Gram determinant 0.000e+00) at point [-1.0, -1.0, -1.0, -1.0]"
    assert out == "" and err == f"error: {message}\n"


_SCALED_COMMANDS = [
    ["metric", "--point=0.1,0.2,0.3,0.4"],
    ["christoffel", "--point=0.1,0.2,0.3,0.4"],
    ["curvature", "--point=0.1,0.2,0.3,0.4"],
    ["basis", "--point=0.1,0.2,0.3,0.4"],
    ["verify", "--grid", "2"],
    ["validate", "--grid", "2"],
    ["scan", "--grid", "2", "--check", "parallel"],
]


@pytest.mark.parametrize("name", ["const", "curved-par", "cone", "nonpar"])
def test_every_scale_ends_in_a_result_or_one_line(tmp_path, capsys, name):
    # Each field times 2^k, from subnormal metrics to ones whose minors or
    # inverse factors overflow: a report with no nan or inf, or exit 3.
    data = json.loads(fixture_path(name).read_text())
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    failed = []
    for k in (-1060, -1040, -1030, -1024, -1010, -1000, -700, -300, 0, 300, 330, 340):
        spec.write_text(json.dumps({**data, **{f: f"{2.0**k!r}*({data[f]})" for f in "ABC"}}))
        for command, *words in _SCALED_COMMANDS:
            out.unlink(missing_ok=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, str(spec), *words, "--json", str(out)])
            stdout, err = capsys.readouterr()
            json.loads(out.read_text(), parse_constant=failed.append)  # NaN or Infinity
            lines_ok = code in (0, 1, 3) and err.count("\n") == (code == 3)
            if not lines_ok or caught or "nan" in stdout.lower() or "inf" in stdout.lower():
                failed.append((k, command, code, err, [str(w.message) for w in caught]))
    assert not failed


def test_scan_parallel(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", CURVED, "--grid", "3", "--check", "parallel", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["report"]["status"] == "pass"
    assert len(report["report"]["payload"]["points"]) == 81


def test_json_error_rendering(tmp_path):
    out = tmp_path / "err.json"
    assert main(["validate", BAD_ORDER, "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["status"] == "fail" and report["inadmissible"]


def test_verify_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", CURVED, "--point", "0,0,0,0", "--seed", "7"]
    assert main(argv + ["--json", str(out1)]) == 0
    assert main(argv + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # One compact line: the C encoder writes it.
    text = out1.read_text()
    assert text.count("\n") == 1 and '": ' not in text and '", "' not in text


GOLDEN = [CONST, FLAT, CURVED, NONPAR]


@pytest.mark.parametrize("spec", GOLDEN)
@pytest.mark.parametrize("where", [["--grid", "2"], ["--point=-0.0,0,0,0"]])
def test_verify_report_is_byte_identical_to_reference_writer(tmp_path, spec, where):
    # The reference writes every scan row and mu-law case as a dict through json.dumps.
    out = tmp_path / "report.json"
    main(["verify", spec, *where, "--seed", "4", "--json", str(out)])
    loaded = load_spec(spec)
    points = loaded.domain.grid(2) if where[0] == "--grid" else [np.array([-0.0, 0.0, 0.0, 0.0])]
    text = out.read_text()
    assert text == report_to_json_reference(run_suite(loaded, points, seed=4))
    if where[0] != "--grid":
        assert '"point":[-0.0,0.0,0.0,0.0]' in text


@pytest.mark.parametrize("spec", GOLDEN)
def test_scan_output_is_byte_identical_to_reference_writers(tmp_path, capsys, spec):
    out = tmp_path / "scan.json"
    main(["scan", spec, "--grid", "2", "--check", "parallel", "--json", str(out)])
    loaded = load_spec(spec)
    (entry,) = run_suite(loaded, loaded.domain.grid(2), checks=["parallel-equivalence"])["checks"]
    report = {"command": "scan", "spec": loaded.name, "check": "parallel", "grid": 2, "report": entry}
    assert out.read_text() == report_to_json_reference(report)
    assert capsys.readouterr().out == scan_stdout_reference(report)


def test_benchmark_verify_report_is_byte_identical_to_reference_writer(tmp_path):
    # The benchmark's verify command: 81 points, 8100 mu-law cases.
    out = tmp_path / "report.json"
    main(["verify", CURVED, "--grid", "3", "--seed", "3", "--json", str(out)])
    loaded = load_spec(CURVED)
    assert out.read_text() == report_to_json_reference(run_suite(loaded, loaded.domain.grid(3), seed=3))


def test_benchmark_scan_output_is_byte_identical_to_reference_writers(tmp_path, capsys):
    # The benchmark's scan command: 4096 rows.
    out = tmp_path / "scan.json"
    main(["scan", CURVED, "--grid", "8", "--check", "parallel", "--json", str(out)])
    loaded = load_spec(CURVED)
    (entry,) = run_suite(loaded, loaded.domain.grid(8), checks=["parallel-equivalence"])["checks"]
    report = {"command": "scan", "spec": loaded.name, "check": "parallel", "grid": 8, "report": entry}
    assert out.read_text() == report_to_json_reference(report)
    assert capsys.readouterr().out == scan_stdout_reference(report)


def test_scan_formats_each_distinct_float_once_per_writer(tmp_path, capsys, monkeypatch):
    calls = []
    kernel = _floattext._kernel
    monkeypatch.setattr(_floattext, "_kernel", lambda v: calls.append(len(v)) or kernel(v))
    assert main(["scan", CURVED, "--grid", "5", "--check", "parallel", "--json", str(tmp_path / "s")]) == 0
    loaded = load_spec(CURVED)
    (entry,) = run_suite(loaded, loaded.domain.grid(5), checks=["parallel-equivalence"])["checks"]
    floats = [c for c in entry["payload"]["points"].columns.values() if c.dtype == float]
    distinct = np.unique(np.concatenate([c.ravel() for c in floats]).view(np.uint64))
    # One kernel call for the printed rows and one for the JSON; a table keeps no texts.
    assert calls == [len(distinct)] * 2


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@pytest.mark.parametrize("spec", [FLAT, CONST])
def test_verify_flat_report_is_strict_json(tmp_path, spec):
    # On a flat metric R(x, qx, x, qx) = 0: each mu-law entry states it once,
    # and no case row holds it or a ratio to it.
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--grid", "2", "--json", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    mu = [e["payload"] for e in report["checks"] if e["name"] == "mu-law"]
    assert [p["angle_law_prediction"] for p in mu] == [0.0] * 16
    cases = [c for p in mu for c in p["cases"]]
    assert len(cases) == 16 * 100
    keys = {"coefficients", "direct", "expansion_prediction", "q_basis"}
    assert all(c.keys() == keys for c in cases)


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "circgeo", "validate", CONST],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert "pass" in result.stdout


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_app_exits_with_mains_code_after_freezing_the_heap(code, monkeypatch):
    # The recorder stands in for gc.freeze, so the test process is never frozen.
    events = []

    def fake_main():
        events.append("main called")
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        cli.app()
    assert exit_info.value.code == code
    assert events == ["main called", "freeze"]


def test_app_does_not_freeze_when_main_raises(monkeypatch):
    events = []

    def failing_main():
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "main", failing_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(RuntimeError):
        cli.app()
    assert events == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", CURVED, "--grid", "2"], 0),
        (["verify", NONPAR, "--grid", "2"], 1),
        (["verify", CURVED, "--grid", "2", "--checks", "no-such-check"], 2),
        (["verify", BAD_ORDER, "--grid", "2"], 3),
    ],
)
def test_a_process_run_gives_the_outputs_of_an_in_process_main(argv, code, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [*argv, "--json", str(out)]
    done = subprocess.run([sys.executable, "-m", "circgeo", *argv], capture_output=True, env=child_env())
    process = (done.returncode, done.stdout, done.stderr, out.read_bytes())
    out.unlink()
    returned = main(argv)
    stdout, stderr = capsys.readouterr()
    in_process = (returned, stdout.encode(), stderr.encode(), out.read_bytes())
    assert process == in_process
    assert returned == code


@pytest.mark.parametrize("command", ["validate", "verify", "scan"])
def test_an_allocation_failure_is_one_line_and_exit_2(command, monkeypatch, tmp_path, capsys):
    message = "Unable to allocate 116. TiB for an array with shape (2000, 2000, 2000, 2000)"

    def failing_grid(self, n):
        raise MemoryError(message)

    monkeypatch.setattr(Box, "grid", failing_grid)
    argv = [command, CURVED, "--grid", "2000"] + (["--check", "parallel"] if command == "scan" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    out = tmp_path / "err.json"
    assert main([*argv, "--json", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "MemoryError", "message": message}}


def _write_spec(tmp_path, A, B="1", C="2"):
    path = tmp_path / "spec.json"
    domain = {"min": [-1, -1, -1, -1], "max": [1, 1, 1, 1]}
    path.write_text(json.dumps({"name": "probe", "A": A, "B": B, "C": C, "domain": domain}))
    return str(path)


def test_overflowing_field_exits_3_without_nan(tmp_path, capsys):
    spec = _write_spec(tmp_path, "4+1e308*1e308*x1")
    assert main(["curvature", spec, "--point", "0.1,0,0,0"]) == 3
    out, err = capsys.readouterr()
    assert "nan" not in out.lower()
    assert err.count("\n") == 1 and "1e+308 * 1e+308" in err


@pytest.mark.parametrize("command", ["metric", "christoffel", "curvature"])
def test_huge_finite_field_exits_3_without_nan(tmp_path, capsys, command):
    spec = _write_spec(tmp_path, "1e200 + x1")
    assert main([command, spec, "--point", "0,0,0,0"]) == 3
    out, err = capsys.readouterr()
    assert "nan" not in out.lower()
    assert err.count("\n") == 1 and "overflow" in err


@pytest.mark.parametrize(
    "argv", [["scan", "--grid", "3", "--check", "parallel"], ["verify", "--grid", "2"]]
)
def test_exp_overflow_exits_3(tmp_path, capsys, argv):
    spec = _write_spec(tmp_path, "4+exp(1000*x1)")
    out = tmp_path / "err.json"
    assert main([argv[0], spec, *argv[1:], "--json", str(out)]) == 3
    assert "exp(1000.0 * x1)" in capsys.readouterr().err
    assert json.loads(out.read_text())["error"]["type"] == "DomainError"


@pytest.mark.parametrize("A", ["(" * 3000 + "x1+4" + ")" * 3000, "4" + "+x1" * 5000])
def test_very_deep_field_exits_2(tmp_path, capsys, A):
    assert main(["validate", _write_spec(tmp_path, A)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "deeper than" in err


def test_a_spec_nested_too_deeply_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(spec)]) == 2
    assert capsys.readouterr().err == "error: malformed manifold spec: JSON nested too deeply\n"


def test_a_spec_name_like_the_table_placeholder_reaches_the_report(tmp_path):
    spec = tmp_path / "spec.json"
    with open(CURVED) as f:
        spec.write_text(json.dumps({**json.load(f), "name": "\0"}))
    out = tmp_path / "report.json"
    assert main(["verify", str(spec), "--point", "0,0,0,0", "--json", str(out)]) == 0
    report = run_suite(load_spec(spec), [np.zeros(4)])
    assert out.read_text() == report_to_json_reference(report)
    assert json.loads(out.read_text())["spec"] == "\0"


def test_a_write_that_fails_midway_leaves_the_error_report(tmp_path, capsys, monkeypatch):
    from circgeo import _table

    pieces = _table._report_pieces
    written = []

    def failing(report):
        if "error" in report:
            return pieces(report)

        def partway():
            for piece in pieces(report):
                if len(written) == 3:
                    raise OSError(28, "No space left on device")
                written.append(piece)
                yield piece

        return partway()

    monkeypatch.setattr(_table, "_report_pieces", failing)
    out = tmp_path / "report.json"
    assert main(["verify", CURVED, "--grid", "2", "--json", str(out)]) == 2
    assert len(written) == 3
    message = "[Errno 28] No space left on device"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "OSError", "message": message}}


# ---------------------------------------------------------------------------
# The error model over generated command lines
# ---------------------------------------------------------------------------

_JSON = "<json>"  # stands for the --json path, filled in per example
# Constants and integer exponents at and past the edges of a double.
_EXTREME_CONSTANTS = ["0", "5e-324", "2.2e-308", "1e154", "1.7976931348623157e308", "1e400"]
_EXTREME_EXPONENTS = st.one_of(
    st.integers(-(10**400), 10**400),
    st.sampled_from([int("9" * 154), int("9" * 155), 10**154, -(10**154), int("9" * 309)]),
)
# 155 nines: the shortest all-nines exponent n whose n(n - 1) overflows a float.
_HUGE_EXPONENT = {"A": "4 + 0*x1^" + "9" * 155, "B": "1", "C": "2"}
_HUGE_EXPONENT_LINE = (
    json.dumps({"name": "probe", **_HUGE_EXPONENT, "domain": {"min": [-1] * 4, "max": [1] * 4}}),
    ["metric", "<spec>", "--point", "0.5,0,0,0", "--json", _JSON],
)
# A q-basis whose components are about 1e80: x^4 overflows a double.
_TINY_METRIC_BASIS_LINE = (
    fixture_path("const-tiny").read_text(),
    ["basis", "<spec>", "--point", "0,0,0,0", "--json", _JSON],
)
_TOKENS = ["--bogus", "--point", "--grid", "--json", "--seed", "-1", "", "x", "0,0,0", "nan", "--"]


def _mutated(draw, text: str) -> str:
    """`text` with a character dropped, inserted or replaced, or cut short."""
    if not text:
        return text
    at = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(list('()+-*/^,.e x1"{}[]:\\') + ["\0", "\u00e9", "1e400"]))
    head, tail = text[:at], text[at + 1 :]
    return draw(st.sampled_from([head + tail, head + char + text[at:], head + char + tail, head]))


@st.composite
def _command_lines(draw):
    """A spec's file text and a command line naming it.  The fields are near
    an admissible metric, from `_ast_strategy`, or add to it an extreme
    constant times a tree to an extreme integer power; at most one of a
    field's text, the file's text or the words of the line is mutated."""
    mutate = draw(st.sampled_from([None] * 4 + ["A", "B", "C", "file", "argv"]))
    fields = {}
    for key, base in (("A", 10), ("B", 1), ("C", 2)):
        tree = unparse(draw(_ast_strategy()))
        constant, exponent = draw(st.sampled_from(_EXTREME_CONSTANTS)), draw(_EXTREME_EXPONENTS)
        extreme = f"{base} + {constant}*({tree})^{exponent}"
        near = [f"{base} + 0.01*({tree})", f"{base} + 1e150*({tree})", tree, str(base), extreme]
        field = draw(st.sampled_from(near))
        fields[key] = _mutated(draw, field) if mutate == key else field
    odd = [[0.3] * 4, [1, 0, 0, 0], ["a", 0, 0, 0], [math.nan] * 4, [-math.inf, 0, 0, 0]]
    lo = draw(st.sampled_from([[-1] * 4] * 5 + odd))
    name = draw(st.sampled_from(["probe", "\0", ""]))
    text = json.dumps({"name": name, **fields, "domain": {"min": lo, "max": [1] * 4}})
    if mutate == "file":  # a character changed, or nested deeper than a recursive reader goes
        text = draw(st.sampled_from([_mutated(draw, text), "[" * 100_000 + text]))

    command = draw(
        st.sampled_from(["validate", "metric", "christoffel", "curvature", "basis", "verify", "scan"])
    )
    point = draw(
        st.sampled_from(
            ["0.5,0.5,0.5,0.5", "0,0,0,0", "-1,-1,-1,-1", "1,0,-1,0", "2,0,0,0", "inf,0,0,0", "1e-320,0,0,0"]
        )
    )
    words = {
        "validate": ["--grid", draw(st.sampled_from(["1", "2", "0", "-2"]))],
        "verify": draw(st.sampled_from([["--point", point], ["--grid", "2"]])),
        "scan": ["--grid", draw(st.sampled_from(["2", "3"])), "--check", "parallel"],
    }.get(command, ["--point", point])
    argv = [command, "<spec>", *words, "--seed", str(draw(st.integers(-1, 3)))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--checks", draw(st.sampled_from(["mu-law,isometry", "parallel-equivalence", "nope"]))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["mu-law=1e-30", "isometry=inf", "nope=1", "mu-law=-1"]))]
    argv += ["--json", _JSON]
    if mutate == "argv":  # a word dropped, doubled or inserted
        at = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(_TOKENS))
        argv[at : at + 1] = draw(st.sampled_from([[], [argv[at]] * 2, [token, argv[at]]]))
    return text, argv


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_command_lines(), st.booleans())
@example(_HUGE_EXPONENT_LINE, False)
@example(_TINY_METRIC_BASIS_LINE, False)
def test_every_command_line_ends_in_a_documented_exit_code(capsys, line, missing_dir):
    text, argv = line
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / ("missing/" * missing_dir + "out.json")
        spec.write_text(text)
        argv = [str(spec) if w == "<spec>" else str(out) if w == _JSON else w for w in argv]
        # A mutated argv can put a token after --json, which then names a
        # relative path: run in the temporary directory so it lands there.
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)  # nothing escapes: an exception fails the test
        finally:
            os.chdir(cwd)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code)
        assert not caught, [str(w.message) for w in caught]  # a warning would be a second line
        if err:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert code in (2, 3), (argv, code, err)
        else:  # validate's inadmissible points are its result, exit 3
            assert code in (0, 1) or (code == 3 and "validate" in argv), (argv, code)
        if out.exists():
            report = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
            assert ("error" in report) == bool(err), (argv, code, report)
