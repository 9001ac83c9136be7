#!/usr/bin/env python3
"""Print the per-process costs of one `circgeo` command line.

    python3 scripts/invocation_costs.py [--runs N] ARGS...

ARGS is the command line after `circgeo`, for example
`verify fixtures/curved-par.json --grid 3`; its second word is the spec.
Each round starts six fresh interpreters, one after the other, in an
order that rotates from round to round:

  python    `python -c pass`: interpreter start and exit
  numpy     `python -c "import numpy"`
  circgeo   `python -c "import circgeo; circgeo.load_spec(SPEC)"`: the
            library, which a bare `import circgeo` does not load
  cached    the circgeo row's code with bytecode cached: with
            `PYTHONDONTWRITEBYTECODE` unset and `PYTHONPYCACHEPREFIX` a
            temporary directory, which one run before the first round fills
  command   `python -m circgeo ARGS`
  teardown  the command once more, through the same entry function, timed
            from the return of `cli.main` to the end of the process

and after N rounds prints the median wall time and CPU time (user plus
system, of all threads) of each, in ms.  These are the costs an in-process
timing of `cli.main` (`perfbench/run.py --trace 1`) cannot see.  The
children run this checkout's `src` with the rest of the environment as
given, so `OPENBLAS_NUM_THREADS` applies to them all and
`PYTHONDONTWRITEBYTECODE` to all but the cached row; their output is
discarded, and their exit codes are printed.  With `PYTHONDONTWRITEBYTECODE=1` and no
`__pycache__` in `src`, the circgeo row compiles circgeo from source and
the cached row does not, so the two differ by the compile time and the
cached row less the numpy row is the import work every process pays.  The
two command rows run through the CLI's entry function, which sets
`OPENBLAS_NUM_THREADS=1` where it is unset, so the script prints the
setting those rows ran with beside the one the other rows ran with.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs the entry function of `python -m circgeo`, with `cli.main` wrapped as
# the module is loaded (after the entry has set the environment) to write the
# monotonic clock, the process CPU time and the `OPENBLAS_NUM_THREADS` it ran
# with when it returns.
_TEARDOWN = """
import importlib.machinery, os, sys, time
fd = os.open(sys.argv.pop(1), os.O_WRONLY)

class WrapMain:
    def find_spec(self, name, path, target=None):
        if name != "circgeo.cli":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        load = spec.loader.exec_module
        def exec_module(module):
            load(module)
            main = module.main
            def timed_main(argv=None):
                code = main(argv)
                threads = os.environ.get("OPENBLAS_NUM_THREADS")
                os.write(fd, f"{time.monotonic()!r} {time.process_time()!r} {threads}".encode())
                return code
            module.main = timed_main
        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, WrapMain())
from circgeo.__main__ import main
main()
"""


def spawn(argv: list[str], env: dict) -> tuple[float, float, float, int]:
    """Run `python argv` to its end: (wall s, end on the monotonic clock,
    CPU s, exit code)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    return end - start, end, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=21, metavar="N", help="rounds (default 21)")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="command line after `circgeo`")
    options = parser.parse_args()
    if options.runs < 1 or len(options.args) < 2:
        parser.error("needs --runs >= 1 and a command line with a spec")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    load = ["-c", f"import circgeo; circgeo.load_spec({options.args[1]!r})"]
    kinds = {
        "python": ["-c", "pass"],
        "numpy": ["-c", "import numpy"],
        "circgeo": load,
        "cached": load,
        "command": ["-m", "circgeo", *options.args],
    }
    names = [*kinds, "teardown"]
    wall = {name: [] for name in names}
    cpu = {name: [] for name in names}
    codes = {name: set() for name in names}
    command_threads = set()
    with tempfile.TemporaryDirectory() as tmp:
        stamp = Path(tmp) / "main-returned"
        cached_env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        cached_env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        spawn(load, cached_env)
        for k in range(options.runs):
            for name in names[k % len(names):] + names[: k % len(names)]:
                if name != "teardown":
                    run_env = cached_env if name == "cached" else env
                    seconds, _, used, code = spawn(kinds[name], run_env)
                else:
                    stamp.write_bytes(b"")
                    _, end, used, code = spawn(["-c", _TEARDOWN, str(stamp), *options.args], env)
                    if not stamp.read_text():
                        sys.exit(f"cli.main did not return (exit code {code}): {' '.join(options.args)}")
                    returned, cpu_then, threads = stamp.read_text().split()
                    returned, cpu_then = float(returned), float(cpu_then)
                    command_threads.add(threads)
                    seconds, used = end - returned, used - cpu_then
                wall[name].append(seconds)
                cpu[name].append(used)
                codes[name].add(code)

    def flag(var: str) -> str:
        return f"{var}={os.environ[var]}" if var in os.environ else f"{var} unset"

    print(f"circgeo {' '.join(options.args)}")
    print(f"medians of {options.runs} interleaved runs; "
          f"{flag('PYTHONDONTWRITEBYTECODE')}, {flag('OPENBLAS_NUM_THREADS')}; "
          f"command rows ran with OPENBLAS_NUM_THREADS={'/'.join(sorted(command_threads))}")
    print(f"  {'':<10} {'wall ms':>9} {'cpu ms':>9}  exit codes")
    for name in names:
        print(f"  {name:<10} {statistics.median(wall[name]) * 1e3:9.1f} "
              f"{statistics.median(cpu[name]) * 1e3:9.1f}  {sorted(codes[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
