"""Fixed reference task that measures the machine's speed, not circgeo's.

    python3 perfbench/reference.py

A fresh interpreter imports numpy and runs a fixed loop of small-array
calls and interpreter work, the same mix as one CLI invocation but without
circgeo.  `run.py` times it from spawn to exit after every invocation and
reports the invocation's times as multiples of it, so that a drift of the
shared machine's speed over minutes cancels out of the end-to-end metrics.
Keep this file unchanged: a change to it rescales every reported time.
"""

from __future__ import annotations

import math

import numpy as np

ITERATIONS = 1500


def main() -> None:
    g = np.array(
        [[4.0, 1.0, 2.0, 1.0], [1.0, 4.0, 1.0, 2.0], [2.0, 1.0, 4.0, 1.0], [1.0, 2.0, 1.0, 4.0]]
    )
    dg = np.arange(64.0).reshape(4, 4, 4) * 1e-3
    acc = 0.0
    for i in range(ITERATIONS):
        x = 0.5 + 1e-4 * i
        gi = np.linalg.inv(g * x)
        gamma = 0.5 * np.einsum("sa,iaj->sij", gi, dg + dg.transpose(0, 2, 1))
        terms = {k: math.sin(k * x) * float(gamma[k % 4, 0, 0]) for k in range(24)}
        acc += sum(terms.values()) + float(np.max(np.abs(gamma)))
    print(f"{acc:.6f}")


if __name__ == "__main__":
    main()
