#!/usr/bin/env python3
"""Compare the outputs of this checkout with those of another one.

    python3 scripts/same_outputs.py OTHER_ROOT

Runs a fixed list of `circgeo` command lines (below) with this checkout's
sources and with OTHER_ROOT's (`PYTHONPATH=<root>/src`), both on this
checkout's fixtures and with the same temporary `--json` path.  Prints each
command line whose stdout, stderr, exit code or JSON report bytes differ,
with what differs, and exits 1 if any do; exits 0 when all are the same.
Where both JSON reports parse, it also names the first value that differs,
in key order, as a path such as `checks[5].payload.cases[0]`.  A refactor
that claims byte-identical output runs this against its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADMISSIBLE = ["const", "flat-par", "curved-par", "nonpar"]
ALL = ["bad-order", *ADMISSIBLE]
JOBS = 2  # command lines run at once, each side after the other


def command_lines() -> list[list[str]]:
    """Each command line as argv after `circgeo`, the spec a fixture name."""
    lines = []
    for name in ADMISSIBLE:
        lines.append(["verify", name, "--grid", "3", "--seed", "7"])
        lines.append(["scan", name, "--check", "parallel", "--grid", "6"])
    lines.append(["verify", "curved-par", "--grid", "5", "--seed", "3"])
    lines.append(["verify", "nonpar", "--grid", "5", "--seed", "3"])
    for checks in ("integrability", "parallel-condition,isometry", "mu-law"):
        lines.append(["verify", "curved-par", "--grid", "3", "--checks", checks])
    lines.append(["scan", "curved-par", "--check", "parallel", "--grid", "8"])
    for name in ALL:
        for grid in ("3", "5"):
            lines.append(["validate", name, "--grid", grid])
    lines.append(["validate", "curved-par", "--grid", "10"])
    for name in ADMISSIBLE:
        for command in ("metric", "christoffel", "curvature", "basis"):
            for point in ("0,0,0,0", "-1,-1,-1,-1"):
                lines.append([command, name, f"--point={point}"])
    # bad-order is inadmissible at the origin: each of these exits 3.
    for command in ("metric", "christoffel", "curvature", "basis"):
        lines.append([command, "bad-order", "--point=0,0,0,0"])
    lines.append(["verify", "bad-order", "--grid", "3"])
    # bad-field has a malformed literal in B: each of these exits 2.
    lines.append(["validate", "bad-field", "--grid", "3"])
    lines.append(["verify", "bad-field", "--grid", "2"])
    lines.append(["metric", "bad-field", "--point=0,0,0,0"])
    # Usage errors, each exit 2; no fixture is named no-such-spec.
    lines.append(["verify", "curved-par", "--grid", "3", "--checks", "no-such-check"])
    lines.append(["verify", "curved-par", "--grid", "3", "--tol", "no-such-tol=1"])
    lines.append(["validate", "no-such-spec", "--grid", "3"])
    lines.append(["metric", "curved-par", "--point=1,2,3"])
    lines.append(["verify", "curved-par", "--grid", "0"])
    lines.append(["validate", "curved-par", "--grid", "-2"])
    lines.append(["scan", "curved-par", "--check", "parallel", "--grid", "0"])
    # An integer exponent whose jet coefficient n(n - 1) overflows a float: exit 2.
    lines.append(["metric", "huge-exponent", "--point=0.5,0,0,0"])
    # cone's q is not parallel: parallel-condition fails everywhere, exit 1.
    lines.append(["verify", "cone", "--grid", "3", "--seed", "7"])
    # cone-bent is admissible, but its lambda0 depends on x1 - x3: the
    # curvature identity fails everywhere and the checks it gates are skipped.
    lines.append(["verify", "cone-bent", "--grid", "3", "--seed", "7"])
    lines.append(["validate", "cone-bent", "--grid", "5"])
    # The const metric at other scales and an ill-conditioned one: flat and
    # admissible, so each of these exits 0.
    point = "--point=0.1,0.2,0.3,0.4"
    lines.append(["verify", "const-micro", point, "--checks", "sectional-relations"])
    lines.append(["verify", "const-micro", "--grid", "2"])
    lines.append(["basis", "near-equal", "--point=0,0,0,0"])
    for command in ("basis", "metric", "christoffel", "curvature"):
        lines.append([command, "const-tiny", "--point=0,0,0,0"])
    lines.append(["verify", "const-tiny", "--grid", "3", "--seed", "7"])
    # tiny-near-equal is admissible, but its g^-1 overflows and no q-basis
    # is accurate: validate exits 0, and each geometry command 3.
    lines.append(["validate", "tiny-near-equal", "--grid", "3"])
    for command in ("metric", "christoffel", "curvature", "basis"):
        lines.append([command, "tiny-near-equal", "--point=0,0,0,0"])
    lines.append(["verify", "tiny-near-equal", "--grid", "2"])
    lines.append(["scan", "tiny-near-equal", "--check", "parallel", "--grid", "2"])
    # log-edge's A leaves the domain of log where x1 > 0.5, first at the 55th
    # of 81 grid points: each error names it, exit 3.
    lines.append(["verify", "log-edge", "--grid", "3"])
    lines.append(["scan", "log-edge", "--check", "parallel", "--grid", "3"])
    lines.append(["metric", "log-edge", "--point=1,0,0,0"])
    lines.append(["validate", "log-edge", "--grid", "3"])
    # The const metric times 2^-1040: a q-basis exists (exit 0), but the
    # inverse overflows (exit 3).
    lines.append(["basis", "const-subnormal", "--point=0,0,0,0"])
    lines.append(["metric", "const-subnormal", "--point=0,0,0,0"])
    # A grid of 4.4 EiB, more than any address space holds: the allocation
    # fails at once, taking no memory, and the run exits 2.
    lines.append(["verify", "curved-par", "--grid", "20000"])
    return lines


def run(root: Path, argv: list[str], json_path: Path) -> tuple:
    """(exit code, stdout, stderr, report bytes) of one command line."""
    spec = str(ROOT / "fixtures" / f"{argv[1]}.json")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "circgeo", argv[0], spec, *argv[2:], "--json", str(json_path)],
        cwd=json_path.parent,
        env=env,
        capture_output=True,
    )
    report = json_path.read_bytes() if json_path.exists() else None
    json_path.unlink(missing_ok=True)
    return done.returncode, done.stdout, done.stderr, report


def first_difference(a, b, path: str = "") -> str | None:
    """The path of the first value, in key order, where two parsed JSON
    documents differ, or None where they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return where
            found = first_difference(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if type(a) is type(b) and a == b else path or "(root)"


def differences(other: Path, argv: list[str], tmp: Path) -> list[str]:
    """What differs between the two checkouts' runs of one command line."""
    json_path = tmp / "report.json"
    tmp.mkdir()
    ours, theirs = run(ROOT, argv, json_path), run(other, argv, json_path)
    names = ("exit code", "stdout", "stderr", "json")
    found = [name for name, a, b in zip(names, ours, theirs) if a != b]
    if "json" in found and ours[3] is not None and theirs[3] is not None:
        try:
            where = first_difference(json.loads(ours[3]), json.loads(theirs[3]))
        except ValueError:
            return found
        found[-1] = f"json at {where}" if where else "json bytes only"
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, help="root of the checkout to compare with")
    args = parser.parse_args()
    other = args.other_root.resolve()
    if not (other / "src" / "circgeo").is_dir():
        parser.error(f"{other} holds no src/circgeo")
    lines = command_lines()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(JOBS) as pool:
        found = pool.map(
            lambda k: differences(other, lines[k], Path(tmp) / str(k)), range(len(lines))
        )
        failed = 0
        for argv, diff in zip(lines, found):
            if diff:
                failed += 1
                print(f"differs ({', '.join(diff)}): circgeo {' '.join(argv)}")
    print(f"{len(lines) - failed} of {len(lines)} command lines give the same outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
