"""Repeated benchmark runs, their spread, and the comparison of two sets.

    python3 perfbench/series.py run --seeds 1-10 --out FILE [--trace 1]
    python3 perfbench/series.py show FILE
    python3 perfbench/series.py compare BASE_FILE NEW_FILE

`run` calls `run.py` once per (seed, workload) for every workload and the
`run_seconds` of BENCHMARK.json, interleaving the workloads and reversing
their order on every other seed so that slow drifts of the machine spread
over all of them, and writes every result line with its provenance to FILE.
`show` prints, per workload, how many runs failed, the share of correct
invocations over all attempted ones, and per metric the median, the
quartiles and the spread (quartile distance over median) of the correct
runs, marking a spread above a third of the metric's bound.  `compare`
refuses files made with different run lengths; it prints both sides'
medians and quartiles and their ratio, marks a metric unresolved when
either side's spread is wider than its bound, or regressed when the new
median is worse than the base by more than the bound, and exits nonzero on
a regression, a failed run in the new file, or a workload missing from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_series(args) -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for name in names if i % 2 == 0 else names[::-1]:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            prov = next((json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: ")), None)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"workload": name, "seed": seed, "exit": proc.returncode,
                         "elapsed_s": elapsed, "provenance": prov, "result": result})
            summary = "no result" if result is None else (
                f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            print(f"seed {seed} {name}: exit {proc.returncode} {summary} in {elapsed:.1f} s", file=sys.stderr)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
            Path(args.out).write_text(
                json.dumps({"seconds": seconds, "trace": args.trace, "runs": runs}, indent=1) + "\n"
            )
    show_file(args.out)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


@dataclass
class Runs:
    """One workload's runs in a results file."""

    runs: int = 0
    failed_runs: int = 0  # nonzero exit, no result line, or an incorrect output
    attempted: int = 0  # invocations, over every run with a result line
    failed: int = 0
    metrics: dict[str, list[float]] = field(default_factory=dict)  # correct runs only

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def load(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    out: dict[str, Runs] = {}
    for run in data["runs"]:
        w = out.setdefault(run["workload"], Runs())
        w.runs += 1
        result = run["result"]
        if result is not None:
            w.attempted += result["attempted"]
            w.failed += result["failed"]
        if run["exit"] != 0 or result is None or not result["correct"]:
            w.failed_runs += 1
            continue
        for name, metric in result["metrics"].items():
            w.metrics.setdefault(name, []).append(float(metric["value"]))
    return {"seconds": data["seconds"], "trace": data["trace"], "workloads": out}


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / |median|)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def metric_info() -> dict[str, dict]:
    bench = benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def _runs_line(w: Runs) -> str:
    return (f"runs {w.runs}, failed runs {w.failed_runs}, "
            f"ok_frac {w.ok_frac:.6g} of {w.attempted} invocations")


def show_file(path: str) -> int:
    info = metric_info()
    for name, w in load(path)["workloads"].items():
        print(f"== {name}: {_runs_line(w)}")
        for metric, values in w.metrics.items():
            med, q1, q3, spread = stats(values)
            bound = info.get(metric, {}).get("bound")
            mark = "" if bound is None else ("  ok" if spread <= bound / 3 else "  SPREAD > bound/3")
            print(f"  {metric:<46} n={len(values):<3} median={med:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={spread:.4f}{mark}")
    return 0


def compare_files(args) -> int:
    info = metric_info()
    base, new = load(args.base), load(args.new)
    for key in ("seconds", "trace"):
        if base[key] != new[key]:
            print(f"error: the files differ in {key}: {base[key]} and {new[key]}", file=sys.stderr)
            return 2
    bad = False
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"== {workload}: MISSING from the new file")
            bad = True
            continue
        print(f"== {workload}: base {_runs_line(b)}; new {_runs_line(n)}")
        if n.failed_runs:
            print(f"  FAILED: {n.failed_runs} runs of the new file are not correct")
            bad = True
        for name in [m for m in b.metrics if m not in n.metrics]:
            print(f"  {name:<46} MISSING from the new file")
            bad = True
        for name in [m for m in b.metrics if m in n.metrics]:
            bm, bq1, bq3, bspread = stats(b.metrics[name])
            nm, nq1, nq3, nspread = stats(n.metrics[name])
            ratio = nm / bm if bm else float("inf")
            meta = info.get(name, {})
            bound, lower = meta.get("bound"), meta.get("better", "lower") == "lower"
            if bound is None:
                verdict = ""
            elif max(bspread, nspread) > bound:
                verdict = "unresolved"
            elif (ratio - 1.0 if lower else 1.0 - ratio) > bound:
                verdict, bad = "REGRESSED", True
            else:
                verdict = "within bound"
            print(f"  {name:<46} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  new {nm:.6g} "
                  f"[{nq1:.6g}, {nq3:.6g}]  new/base {ratio:.4f}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("show")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run_series(args)
    if args.mode == "show":
        return show_file(args.file)
    return compare_files(args)


if __name__ == "__main__":
    sys.exit(main())
