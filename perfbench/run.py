"""circgeo benchmark: one workload, run through the real CLI, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With `--trace 0` the workload's CLI command
runs as a child process, one at a time, for S seconds; every invocation is
checked against the known answer (`gate.py`) and the end-to-end metrics are
medians over the invocations, with times in multiples of a fixed reference
task timed after each one (`reference.py`).  With `--trace 1` the same command runs
in-process through `circgeo.cli.main`, alternately plain and with spans
around each layer's public functions (`spans.py`), and the per-layer metrics
are printed instead.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every output matched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import problems
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_build") / "perfbench"
CHILD_TIMEOUT_S = 120.0
MIN_SAMPLES = 3
CHECK_POINTS = 81  # points per run_suite call when costing single checks
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, int, object]:
    """Run argv to completion; return (wall seconds, exit code, rusage).

    Wall time runs from just before the spawn to the return of wait4, which
    also gives the child's own CPU time and peak RSS.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    reaped = threading.Event()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=actions)

    def kill_if_running():
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill_if_running)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        reaped.set()
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage


def measure_setup(spec: str) -> float:
    """Wall time of a fresh interpreter that imports circgeo and loads the spec."""
    code = f"import circgeo; circgeo.load_spec({spec!r})"
    wall, exit_code, _ = spawn(["-c", code], WORK / "setup.out")
    if exit_code != 0:
        raise BenchError(f"set-up failed: {(WORK / 'setup.out').read_text()[-2000:]}")
    return wall


def measure_reference() -> float:
    """Wall time of the fixed reference task (`reference.py`), spawn to exit."""
    script = str(Path(__file__).resolve().parent / "reference.py")
    wall, exit_code, _ = spawn([script], WORK / "reference.out")
    if exit_code != 0:
        raise BenchError(f"reference task failed: {(WORK / 'reference.out').read_text()[-2000:]}")
    return wall


# ---------------------------------------------------------------------------
# Checked invocations
# ---------------------------------------------------------------------------


class Checker:
    """Gates every invocation and requires byte-identical reports within a run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.spec = json.loads(Path(workload.spec).read_text())
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, exit_code: int, stdout: str, report: bytes) -> None:
        found = problems(self.workload, self.spec, exit_code, stdout, report)
        digest = hashlib.sha256(report).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append("report differs from the first report of this run")
        self.attempted += 1
        if found:
            self.failed += 1
            self.messages += [f"invocation {self.attempted}: {msg}" for msg in found[:5]]


def invoke_cli(workload: Workload, seed: int, checker: Checker) -> dict:
    report_path = WORK / f"{workload.name}.json"
    stdout_path = WORK / f"{workload.name}.stdout"
    report_path.unlink(missing_ok=True)
    argv = ["-m", "circgeo", *workload.argv(seed, str(report_path))]
    wall, exit_code, usage = spawn(argv, stdout_path)
    report = report_path.read_bytes() if report_path.exists() else b""
    checker.check(exit_code, stdout_path.read_text(errors="replace"), report)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "report_bytes": len(report),
    }


def run_end_to_end(workload: Workload, seed: int, seconds: float, checker: Checker) -> dict:
    """Medians over invocations; times are multiples of the reference task.

    After each invocation the loop times one set-up and one reference task,
    and divides the invocation's times by the mean of the reference tasks
    just before and just after it: the shared machine's speed drifts by tens
    of per cent over minutes, which moves program and reference alike.
    """
    measure_setup(workload.spec)  # warm-up: compiles bytecode in a fresh checkout
    measure_reference()  # warm-up
    before = measure_reference()
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        sample = invoke_cli(workload, seed, checker)
        sample["setup_s"] = measure_setup(workload.spec)
        after = measure_reference()
        sample["ref_s"] = (before + after) / 2.0
        before = after
        samples.append(sample)

    def median(f) -> float:
        return statistics.median(f(s) for s in samples)

    ok_frac = 1.0 - checker.failed / checker.attempted
    values = {
        "wall_ref": (median(lambda s: s["wall_s"] / s["ref_s"]), "ref"),
        "point_ref": (
            median(lambda s: (s["wall_s"] - s["setup_s"]) / s["ref_s"]) / workload.points,
            "ref",
        ),
        "cpu_ref": (median(lambda s: s["cpu_s"] / s["ref_s"]), "ref"),
        "peak_rss_mb": (median(lambda s: s["peak_rss_mb"]), "MB"),
        "report_bytes": (median(lambda s: s["report_bytes"]), "bytes"),
        "ok_frac": (ok_frac, "ratio"),
        "setup_s": (median(lambda s: s["setup_s"]), "s"),
    }
    print(f"invocations timed: {len(samples)}, each followed by a set-up and a reference task")
    print("  as measured (medians, not normalised):")
    print(f"  {'wall_s':<14} {median(lambda s: s['wall_s']):.6g} s")
    ms_per_point = median(lambda s: s["wall_s"] - s["setup_s"]) * 1000.0 / workload.points
    print(f"  {'ms_per_point':<14} {ms_per_point:.6g} ms")
    print(f"  {'cpu_s':<14} {median(lambda s: s['cpu_s']):.6g} s")
    print(f"  {'ref_s':<14} {median(lambda s: s['ref_s']):.6g} s")
    print(f"  {'failed_frac':<14} {1.0 - ok_frac:.6g} ratio")
    print("  result metrics:")
    return values


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, seconds: float, checker: Checker) -> dict:
    import spans

    sys.path.insert(0, str(Path("src").resolve()))
    mods = {name: importlib.import_module(f"circgeo.{name}") for name in spans.MODULES}
    cli, verify = mods["cli"], mods["verify"]
    tracer = spans.Tracer(mods)
    report_path = WORK / f"{workload.name}.json"
    stdout_path = WORK / f"{workload.name}.stdout"
    argv = workload.argv(seed, str(report_path))

    def invoke(traced: bool) -> float:
        report_path.unlink(missing_ok=True)
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    exit_code = tracer.call("cli.main", cli.main, argv)
                finally:
                    tracer.uninstall()
                wall = tracer.spans[0].end - tracer.spans[0].start
            else:
                t0 = time.perf_counter()
                exit_code = cli.main(argv)
                wall = time.perf_counter() - t0
        report = report_path.read_bytes() if report_path.exists() else b""
        checker.check(exit_code, stdout_path.read_text(errors="replace"), report)
        return wall

    invoke(False)  # warm-up
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    pair = 0
    while time.perf_counter() - start < 0.6 * seconds or pair < 1:
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            wall = invoke(is_traced)
            if is_traced:
                traced.append(wall)
                summaries.append(spans.summarize(tracer.spans))
            else:
                plain.append(wall)
        pair += 1
    last = tracer.spans
    statuses = []  # verdicts are counted only from reports that passed the gate
    if checker.failed == 0:
        report = json.loads(report_path.read_bytes())
        statuses = (
            [e["status"] for e in report["checks"]]
            if workload.command == "verify"
            else [report["report"]["status"]]
        )

    check_ms = check_costs(mods, workload, seed, start + seconds)

    def layer(name: str, field: str) -> float:
        if field == "calls":
            return summaries[-1][name].calls if name in summaries[-1] else 0
        return statistics.median(
            getattr(s[name], field) if name in s else 0.0 for s in summaries
        )

    draws = spans.count_children(last, "core.induces_q_basis", "verify.sample_q_basis_vectors")
    accepted = spans.count_children(
        last, "core.induces_q_basis", "verify.sample_q_basis_vectors", flag=True
    )
    values: dict[str, tuple[float, str]] = {
        "expr.jet.calls": (layer("expr.jet", "calls"), "count"),
        "expr.jet.self_s": (layer("expr.jet", "self_s"), "s"),
        "expr.parse.self_s": (layer("expr.parse", "self_s"), "s"),
        "core.metric_at.calls": (layer("core.metric_at", "calls"), "count"),
        "core.metric_at.self_s": (layer("core.metric_at", "self_s"), "s"),
        "core.find_orthogonal_q_basis.calls": (layer("core.find_orthogonal_q_basis", "calls"), "count"),
        "core.find_orthogonal_q_basis.self_s": (layer("core.find_orthogonal_q_basis", "self_s"), "s"),
        "core.qbasis.restarts": (
            spans.count_children(last, "core.induces_q_basis", "core.find_orthogonal_q_basis"),
            "count",
        ),
    }
    for short in ("christoffel", "riemann", "nabla_q", "sectional_curvature"):
        values[f"tensor.{short}.calls"] = (layer(f"tensor.{short}", "calls"), "count")
        values[f"tensor.{short}.self_s"] = (layer(f"tensor.{short}", "self_s"), "s")
    values["verify.run_suite.s"] = (layer("verify.run_suite", "total_s"), "s")
    values["verify.report_to_json.s"] = (layer("verify.report_to_json", "total_s"), "s")
    for name in verify.KNOWN_CHECKS:
        values[f"verify.check.{name}.ms_per_point"] = (check_ms[name], "ms")
    values["verify.sample.draws"] = (draws, "count")
    values["verify.sample.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    for status in ("pass", "fail", "skipped"):
        values[f"verify.verdicts.{status}"] = (statuses.count(status), "count")
    values["cli.main.s"] = (statistics.median(traced), "s")
    values["cli.emit.s"] = (layer("cli.emit", "total_s"), "s")
    values["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")

    self_total = sum(v for k, (v, _) in values.items() if k.endswith(".self_s"))
    print(f"plain runs: {len(plain)}, traced runs: {len(traced)}, spans in the last: {len(last)}")
    print(f"reported self times sum to {self_total:.4f} s of {values['cli.main.s'][0]:.4f} s traced wall")
    return values


def check_costs(mods: dict, workload: Workload, seed: int, deadline: float) -> dict[str, float]:
    """Marginal ms/point of each check: run_suite([name]) minus run_suite([]).

    Uses up to CHECK_POINTS of the workload's grid points, evenly strided,
    and repeats whole rounds until the deadline (at least one round).
    """
    core, verify = mods["core"], mods["verify"]
    spec = core.load_spec(workload.spec)
    points = spec.domain.grid(workload.grid)
    points = points[:: math.ceil(len(points) / CHECK_POINTS)]

    def timed(checks: list[str]) -> float:
        t0 = time.perf_counter()
        verify.run_suite(spec, points, checks=checks, seed=seed)
        return time.perf_counter() - t0

    marginal: dict[str, list[float]] = {name: [] for name in verify.KNOWN_CHECKS}
    while time.perf_counter() < deadline or not marginal["isometry"]:
        base = timed([])
        for name in verify.KNOWN_CHECKS:
            marginal[name].append(timed([name]) - base)
    print(f"check-cost rounds: {len(marginal['isometry'])} on {len(points)} points")
    return {name: statistics.median(v) * 1000.0 / len(points) for name, v in marginal.items()}


# ---------------------------------------------------------------------------
# Provenance and entry point
# ---------------------------------------------------------------------------


def provenance(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    # The ceiling keeps git from reporting an enclosing repository's sha.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_sha": sha or "unknown",
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload": workload.name,
        "argv": workload.argv(seed, "OUT"),
        "grid": workload.grid,
        "points": workload.points,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    os.chdir(ROOT)
    missing = [p for p in ("src/circgeo/cli.py", workload.spec) if not Path(p).is_file()]
    if missing:
        print(f"error: not a circgeo checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    print("provenance: " + json.dumps(provenance(workload, args.seed, args.seconds, args.trace)))
    checker = Checker(workload)
    run = run_traced if args.trace else run_end_to_end
    try:
        values = run(workload, args.seed, args.seconds, checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in values.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    for msg in checker.messages[:20]:
        print(f"MISMATCH {msg}", file=sys.stderr)
    correct = checker.failed == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
