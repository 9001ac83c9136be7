"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from circgeo import _floattext
from circgeo.cli import main
from circgeo.core import load_spec
from circgeo.verify import run_suite

from conftest import fixture_path
from oracles import report_to_json_reference, scan_stdout_reference

CURVED = str(fixture_path("curved-par"))
NONPAR = str(fixture_path("nonpar"))
BAD_ORDER = str(fixture_path("bad-order"))
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


def test_zero_grid_exits_2(capsys):
    assert main(["verify", CURVED, "--grid", "0"]) == 2
    assert "grid resolution" in capsys.readouterr().err


def test_missing_spec_exits_2(capsys, tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_malformed_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "A": "x1 +", "B": "1", "C": "2", "domain": {"min": [0,0,0,0], "max": [1,1,1,1]}}')
    assert main(["validate", str(bad)]) == 2


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
    floats = [c for c in entry["payload"]["points"].columns.values() if c is not None and c.dtype == float]
    distinct = np.unique(np.concatenate([c.ravel() for c in floats]).view(np.uint64))
    # One kernel call for the printed rows and one for the JSON; a table keeps no texts.
    assert calls == [len(distinct)] * 2


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@pytest.mark.parametrize("spec", [FLAT, CONST])
def test_verify_flat_report_is_strict_json(tmp_path, spec):
    # On a flat metric R(x, qx, x, qx) = 0, so the mu-law ratio has no value.
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--grid", "2", "--json", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    cases = [c for e in report["checks"] if e["name"] == "mu-law" for c in e["payload"]["cases"]]
    assert len(cases) == 16 * 100
    assert all(c["ratio_direct_to_angle_law"] is None for c in cases)


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "circgeo", "validate", CONST],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "pass" in result.stdout


def _write_spec(tmp_path, A):
    path = tmp_path / "spec.json"
    domain = {"min": [-1, -1, -1, -1], "max": [1, 1, 1, 1]}
    path.write_text(json.dumps({"name": "probe", "A": A, "B": "1", "C": "2", "domain": domain}))
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
    import circgeo.verify as verify

    pieces = verify._report_pieces
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

    monkeypatch.setattr(verify, "_report_pieces", failing)
    out = tmp_path / "report.json"
    assert main(["verify", CURVED, "--grid", "2", "--json", str(out)]) == 2
    assert len(written) == 3
    message = "[Errno 28] No space left on device"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "OSError", "message": message}}
