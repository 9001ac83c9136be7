"""Entry point of `python -m circgeo` and of the `circgeo` console script."""

import os


def main() -> None:
    """Run the CLI (`cli.app`) with OpenBLAS on one thread.

    circgeo contracts 4x4 blocks, so a BLAS worker thread only spins.
    OpenBLAS sizes its pool when numpy is imported, so the setting is made
    before anything imports numpy, and an `OPENBLAS_NUM_THREADS` already
    set wins.
    The library itself leaves threading and `os.environ` alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import app

    app()


if __name__ == "__main__":
    main()
