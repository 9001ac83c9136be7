"""Command-line front end.

Subcommands:

  validate     admissibility of the metric over a grid
  metric       metric, inverse and minors at a point
  christoffel  connection coefficients and their derivatives at a point
  curvature    covariant curvature tensor at a point
  basis        orthogonal q-basis at a point
  verify       full residual-check suite at a point or over a grid
  scan         one named scan over a grid (currently: parallel)

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse error, 3 inadmissible, singular or ill-conditioned metric, or domain
error.  Every error is one line on stderr, and with --json PATH it is also
written to PATH as {"error": {"type", "message"}}.  Otherwise --json PATH
writes the same report that drives the human-readable output, so every
printed number is also in the file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .core import (
    AdmissibilityError,
    OutsideDomainError,
    SingularMetricError,
    admissibility,
    basis_angles,
    find_orthogonal_q_basis,
    inner,
    inverse_metric,
    load_spec,
    metric_at,
    q_apply,
)
from .expr import DomainError, ParseError
from .tensor import christoffel_from_metric, nabla_q, riemann_from_christoffel
from .verify import convention_text, run_suite, write_report

_EXIT_OK, _EXIT_CHECK_FAILED, _EXIT_USAGE, _EXIT_DOMAIN = 0, 1, 2, 3


class UsageError(Exception):
    """A command line that does not parse (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises `UsageError` where argparse would print usage and exit.

    A word that starts with '-' is a value, not an option, when it is a
    negative number or holds a comma, so `--point -1,0,0,0` works as
    `--point=-1,0,0,0` does; argparse alone takes only plain negative
    numbers for values.  This replaces argparse's private
    `_negative_number_matcher`, the pattern its `_parse_optional` and
    `add_argument` match words against: checked with the argparse of
    Python 3.11 only, and other versions may use it otherwise.
    `test_negative_point_reads_the_same_with_or_without_equals` guards it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-[^-].*,")

    def error(self, message):
        raise UsageError(message)


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}") from exc
    if len(values) != 4:
        raise argparse.ArgumentTypeError(f"a point needs 4 comma-separated values, got {text!r}")
    return np.array(values)


def _parse_checks(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"--checks names no check: {text!r}")
    return names


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circgeo",
        description="Circulant 4D metrics: curvature computation and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="path to a manifold spec JSON file")
        p.add_argument("--json", dest="json_path", metavar="PATH", help="write the report as JSON")
        p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")

    p = sub.add_parser("validate", help="check admissibility over a grid")
    add_common(p)
    p.add_argument("--grid", type=int, default=3, metavar="N", help="samples per axis (default 3)")

    for name in ("metric", "christoffel", "curvature"):
        p = sub.add_parser(name, help=f"print the {name} at a point")
        add_common(p)
        p.add_argument("--point", type=_parse_point, required=True, metavar="X1,X2,X3,X4")

    p = sub.add_parser("basis", help="orthogonal q-basis at a point")
    add_common(p)
    p.add_argument("--point", type=_parse_point, required=True, metavar="X1,X2,X3,X4")

    p = sub.add_parser("verify", help="run the residual-check suite")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=_parse_point, metavar="X1,X2,X3,X4")
    group.add_argument("--grid", type=int, metavar="N")
    p.add_argument(
        "--checks", type=_parse_checks, metavar="LIST", help="comma-separated check names"
    )
    p.add_argument(
        "--tol",
        action="append",
        type=_parse_tol,
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )

    p = sub.add_parser("scan", help="scan one named check over a grid")
    add_common(p)
    p.add_argument("--grid", type=int, required=True, metavar="N")
    p.add_argument("--check", required=True, choices=["parallel"])
    return parser


def _emit(report: dict, json_path: str | None, render) -> None:
    render(report)
    if json_path:
        write_report(report, json_path)


def _render_matrix(name: str, matrix) -> None:
    print(f"{name}:")
    for row in matrix:
        print("  " + "  ".join(repr(float(v)) for v in row))


def _render_verify(report: dict) -> None:
    print(f"spec: {report['spec']}")
    print(f"convention: {report['convention']}")
    for check in report["checks"]:
        res = " ".join(f"{k}={v!r}" for k, v in sorted(check["residuals"].items()))
        where = "" if check["point"] is None else f" @ {check['point']!r}"
        print(
            f"[{check['status']:>7}] {check['name']}{where} tol={check['tolerance']!r} {res}"
        )


def _grid_or_point(args, spec):
    if getattr(args, "grid", None) is not None:
        return spec.domain.grid(args.grid)
    return [args.point]


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    points = spec.domain.grid(args.grid)
    bad = []
    for p in points:
        try:
            metric_at(spec, p)
        except (AdmissibilityError, DomainError) as exc:
            bad.append({"point": [float(v) for v in p], "reason": str(exc)})
    report = {
        "command": "validate",
        "spec": spec.name,
        "grid": args.grid,
        "points_checked": len(points),
        "inadmissible": bad,
        "status": "pass" if not bad else "fail",
    }
    _emit(
        report,
        args.json_path,
        lambda rep: print(
            f"spec: {rep['spec']}  checked {rep['points_checked']} grid points, "
            f"{len(rep['inadmissible'])} inadmissible -> {rep['status']}"
        ),
    )
    return _EXIT_OK if not bad else _EXIT_DOMAIN


def _cmd_metric(args) -> int:
    spec = load_spec(args.spec)
    m = metric_at(spec, args.point)
    gi = inverse_metric(m)
    ordered, minors = admissibility(m.a, m.b, m.c)
    report = {
        "command": "metric",
        "spec": spec.name,
        "point": [float(v) for v in args.point],
        "a": m.a,
        "b": m.b,
        "c": m.c,
        "ordered": ordered,
        "minors": [float(v) for v in minors],
        "matrix": m.matrix.tolist(),
        "inverse": {
            "a_bar": gi.a_bar,
            "b_bar": gi.b_bar,
            "c_bar": gi.c_bar,
            "d": gi.d,
            "matrix": gi.matrix.tolist(),
        },
    }

    def render(rep):
        print(f"spec: {rep['spec']}  point: {rep['point']!r}")
        print(f"A={rep['a']!r} B={rep['b']!r} C={rep['c']!r}  ordered={rep['ordered']}")
        print(f"minors: {rep['minors']!r}")
        _render_matrix("g", rep["matrix"])
        inv = rep["inverse"]
        print(
            f"inverse factors: a_bar={inv['a_bar']!r} b_bar={inv['b_bar']!r} "
            f"c_bar={inv['c_bar']!r} d={inv['d']!r}"
        )
        _render_matrix("g^-1", inv["matrix"])

    _emit(report, args.json_path, render)
    return _EXIT_OK


def _cmd_christoffel(args) -> int:
    spec = load_spec(args.spec)
    m = metric_at(spec, args.point)
    ch = christoffel_from_metric(m)
    nq = nabla_q(ch)
    report = {
        "command": "christoffel",
        "spec": spec.name,
        "point": [float(v) for v in args.point],
        "gamma": ch.gamma.tolist(),
        "dgamma": ch.dgamma.tolist(),
        "max_abs_gamma": ch.max_abs,
        "nabla_q_max_abs": nq.max_abs,
    }

    def render(rep):
        print(f"spec: {rep['spec']}  point: {rep['point']!r}")
        print(f"max |Gamma| = {rep['max_abs_gamma']!r}, max |nabla q| = {rep['nabla_q_max_abs']!r}")
        gamma = rep["gamma"]
        for s in range(4):
            _render_matrix(f"Gamma^{s + 1}_ij", gamma[s])

    _emit(report, args.json_path, render)
    return _EXIT_OK


def _cmd_curvature(args) -> int:
    spec = load_spec(args.spec)
    m = metric_at(spec, args.point)
    r = riemann_from_christoffel(m, christoffel_from_metric(m))
    report = {
        "command": "curvature",
        "spec": spec.name,
        "point": [float(v) for v in args.point],
        "convention": convention_text(),
        "r_low": r.r_low.tolist(),
        "norm_inf": r.norm_inf,
    }

    def render(rep):
        print(f"spec: {rep['spec']}  point: {rep['point']!r}")
        print(f"convention: {rep['convention']}")
        print(f"max |R_ijkl| = {rep['norm_inf']!r}")
        low = np.asarray(rep["r_low"])
        for i in range(4):
            for j in range(i + 1, 4):
                _render_matrix(f"R_{i + 1}{j + 1}kl", low[i, j])

    _emit(report, args.json_path, render)
    return _EXIT_OK


def _cmd_basis(args) -> int:
    spec = load_spec(args.spec)
    m = metric_at(spec, args.point)
    x = find_orthogonal_q_basis(m, seed=args.seed)
    angles = basis_angles(m, x)
    shifts = [q_apply(x, k) for k in range(4)]
    products = {
        f"g(q{i}x,q{j}x)": inner(m, shifts[i], shifts[j])
        for i in range(4)
        for j in range(i + 1, 4)
    }
    report = {
        "command": "basis",
        "spec": spec.name,
        "point": [float(v) for v in args.point],
        "x": [float(v) for v in x],
        "cos_phi": angles.cos_phi,
        "cos_theta": angles.cos_theta,
        "pairwise_products": products,
    }

    def render(rep):
        print(f"spec: {rep['spec']}  point: {rep['point']!r}")
        print(f"x = {rep['x']!r}")
        print(f"cos_phi={rep['cos_phi']!r} cos_theta={rep['cos_theta']!r}")
        for k, v in sorted(rep["pairwise_products"].items()):
            print(f"  {k} = {v!r}")

    _emit(report, args.json_path, render)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    points = _grid_or_point(args, spec)
    # run_suite rejects an unknown check or tolerance name with a ValueError (exit 2).
    report = run_suite(spec, points, checks=args.checks, seed=args.seed, tolerances=dict(args.tol))
    _emit(report, args.json_path, _render_verify)
    failed = any(check["status"] == "fail" for check in report["checks"])
    return _EXIT_CHECK_FAILED if failed else _EXIT_OK


def _cmd_scan(args) -> int:
    spec = load_spec(args.spec)
    points = spec.domain.grid(args.grid)
    (entry,) = run_suite(spec, points, checks=["parallel-equivalence"])["checks"]
    report = {
        "command": "scan",
        "spec": spec.name,
        "check": args.check,
        "grid": args.grid,
        "report": entry,
    }

    def render(out):
        inner_rep = out["report"]
        header = (
            f"spec: {out['spec']}  scan={out['check']} grid={out['grid']} -> "
            f"{inner_rep['status']} (disagreements: {inner_rep['residuals']['disagreements']!r})\n"
        )
        # One line per point, `  [x1, x2, x3, x4] gradient=... nabla_q=... holds=(..., ...)`,
        # all written at once.
        rows = inner_rep["payload"]["points"].text(
            ["  [", "point", "] gradient=", "gradient_residual", " nabla_q=", "nabla_q_residual",
             " holds=(", "gradient_holds", ", ", "parallel_holds", ")\n"]
        )
        sys.stdout.write(header + rows)

    _emit(report, args.json_path, render)
    return _EXIT_OK if entry["status"] == "pass" else _EXIT_CHECK_FAILED


_COMMANDS = {
    "validate": _cmd_validate,
    "metric": _cmd_metric,
    "christoffel": _cmd_christoffel,
    "curvature": _cmd_curvature,
    "basis": _cmd_basis,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def _json_path_of(argv) -> str | None:
    """The --json PATH of a command line that does not parse, if it names one."""
    parser = _Parser(add_help=False)
    parser.add_argument("--json", dest="json_path")
    try:
        return parser.parse_known_args(argv)[0].json_path
    except UsageError:
        return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        _report_error(exc, _json_path_of(argv))
        return _EXIT_USAGE
    json_path = getattr(args, "json_path", None)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        _report_error(exc, json_path)
        return _EXIT_USAGE
    except (AdmissibilityError, OutsideDomainError, SingularMetricError, DomainError) as exc:
        _report_error(exc, json_path)
        return _EXIT_DOMAIN
    except ValueError as exc:
        _report_error(exc, json_path)
        return _EXIT_USAGE


def _report_error(exc: Exception, json_path: str | None) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if json_path:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        write_report(payload, json_path)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
