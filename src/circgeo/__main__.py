"""Entry point of `python -m circgeo` and of the `circgeo` console script."""

import gc
import os
import sys


def main() -> None:
    """Run the CLI (`cli.main`) with OpenBLAS on one thread, then exit with its code.

    circgeo contracts 4x4 blocks, so a BLAS worker thread only spins.
    OpenBLAS sizes its pool when numpy is imported, so the setting is made
    before anything imports numpy, and an `OPENBLAS_NUM_THREADS` already
    set wins.  The library itself leaves threading and `os.environ` alone.

    Freezing the heap once `cli.main` has returned moves every object alive
    by then out of the collector's reach, so the collections the interpreter
    forces at shutdown skip the numpy and circgeo heap (20 to 30 ms of a
    `verify` or `scan` run).  `gc.disable()` does not stop those
    collections, and `os._exit` would skip atexit handlers and the flush of
    stdout and stderr.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    code = cli_main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
