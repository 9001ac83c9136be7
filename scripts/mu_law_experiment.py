#!/usr/bin/env python3
"""Adjudicate the two closed-form predictions for R(u, qu, u, qu).

For vectors u = alpha x + beta qx + gamma q^2 x + delta q^3 x over an
orthonormal q-basis on the curved parallel fixture, compare:

  direct      the tensor contraction R(u, qu, u, qu)
  expansion   (1 - cos theta)^2 R(x, qx, x, qx)
  angle law   R(x, qx, x, qx), i.e. mu(phi) = mu(pi/2) / (1 - cos^2 phi)
              converted to the same contraction

The cases are those of the suite's `mu-law` check at the origin, seed 2,
and R(x, qx, x, qx) is the one the entry states.  The measured ratio
direct / angle-law, computed here per case, tracks (1 - cos theta)^2, so the
expansion is the prediction the tensor actually satisfies; the angle law
only matches it on the cos theta = 0 slice.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's circgeo, installed or not

from circgeo.core import load_spec
from circgeo.verify import run_suite

POINT = [0.0, 0.0, 0.0, 0.0]
SAMPLES = 24
SEED = 2


def main() -> None:
    spec = load_spec(ROOT / "fixtures" / "curved-par.json")
    (entry,) = run_suite(spec, [POINT], checks=["mu-law"], seed=SEED, mu_samples=SAMPLES)["checks"]
    cases = entry["payload"]["cases"]
    rho = entry["payload"]["angle_law_prediction"]
    print(f"spec={spec.name}  point={POINT}  R(x,qx,x,qx) = {rho:.10g}")
    header = (
        f"{'cos_phi':>9s} {'cos_theta':>9s} {'direct':>13s} {'expansion':>13s} "
        f"{'angle law':>13s} {'ratio':>9s} {'(1-ct)^2':>9s}"
    )
    print(header)
    for case in cases:
        # In an orthonormal q-basis both cosines follow from the coefficients.
        a, b, g, d = case["coefficients"]
        cos_phi = min(1.0, max(-1.0, a * b + a * d + b * g + d * g))
        cos_theta = min(1.0, max(-1.0, 2.0 * a * g + 2.0 * b * d))
        print(
            f"{cos_phi:9.4f} {cos_theta:9.4f} {case['direct']:13.6e} "
            f"{case['expansion_prediction']:13.6e} {rho:13.6e} "
            f"{case['direct'] / rho:9.4f} {(1 - cos_theta) ** 2:9.4f}"
        )


if __name__ == "__main__":
    main()
