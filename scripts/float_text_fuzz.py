#!/usr/bin/env python3
"""Compare the float text kernel with `repr` over random bit patterns.

Draws N uniformly random 64-bit patterns (every sign, exponent and
mantissa, so NaNs, infinities, subnormals and zeros too) in chunks, writes
each chunk with `circgeo._floattext.float_text` and compares every text
with `repr` of the same float.  Exits 1 at the first mismatch, printing the
value, its bit pattern and both texts; exits 0 when all N match.  Runs
long for large N, so it is not part of the test suite:

    python3 scripts/float_text_fuzz.py 10000000 --seed 7
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's circgeo, installed or not

from circgeo._floattext import float_text

CHUNK = 1 << 18  # values drawn and compared at a time: bounds memory, not coverage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="number of random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    done = 0
    while done < args.count:
        bits = rng.integers(0, 2**64, min(CHUNK, args.count - done), dtype=np.uint64)
        values = bits.view(np.float64)
        for value, row in zip(values.tolist(), float_text(values)):
            got = row.tobytes().rstrip(b"\0").decode()
            if got != repr(value):
                print(f"mismatch at {value!r} (bits {np.float64(value).view(np.uint64):#018x}): "
                      f"kernel {got!r}, repr {value!r}")
                return 1
        done += len(bits)
    print(f"{done} values match repr ({time.perf_counter() - start:.1f} s, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
