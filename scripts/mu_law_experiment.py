#!/usr/bin/env python3
"""Adjudicate the two closed-form predictions for R(u, qu, u, qu).

For vectors u = alpha x + beta qx + gamma q^2 x + delta q^3 x over an
orthonormal q-basis on the curved parallel fixture, compare:

  direct      the tensor contraction R(u, qu, u, qu)
  expansion   (1 - cos theta)^2 R(x, qx, x, qx)
  angle law   R(x, qx, x, qx), i.e. mu(phi) = mu(pi/2) / (1 - cos^2 phi)
              converted to the same contraction

The measured ratio direct / angle-law tracks (1 - cos theta)^2, so the
expansion is the prediction the tensor actually satisfies; the angle law
only matches it on the cos theta = 0 slice.
"""

from pathlib import Path

import numpy as np

from circgeo.core import find_orthogonal_q_basis, load_spec, metric_at
from circgeo.tensor import christoffel_from_metric, riemann_from_christoffel
from circgeo.verify import QBasisCoefficients, mu_law_cases

ROOT = Path(__file__).resolve().parent.parent
POINT = [0.0, 0.0, 0.0, 0.0]
SAMPLES = 24
SEED = 2


def main() -> None:
    spec = load_spec(ROOT / "fixtures" / "curved-par.json")
    m = metric_at(spec, POINT)
    r = riemann_from_christoffel(m, christoffel_from_metric(m))
    basis = find_orthogonal_q_basis(m, seed=SEED)
    rng = np.random.default_rng(SEED)
    coeffs = np.array([QBasisCoefficients.random_unit(rng).as_array() for _ in range(SAMPLES)])
    cases, _ = mu_law_cases(r, basis, coeffs)
    rho = cases[0]["angle_law_prediction"]
    print(f"spec={spec.name}  point={POINT}  R(x,qx,x,qx) = {rho:.10g}")
    header = f"{'cos_phi':>9s} {'cos_theta':>9s} {'direct':>13s} {'expansion':>13s} {'angle law':>13s} {'ratio':>9s} {'(1-ct)^2':>9s}"
    print(header)
    for case in cases:
        cos_theta = case["cos_theta"]
        print(
            f"{case['cos_phi']:9.4f} {cos_theta:9.4f} {case['direct']:13.6e} "
            f"{case['expansion_prediction']:13.6e} {rho:13.6e} "
            f"{case['ratio_direct_to_angle_law']:9.4f} {(1 - cos_theta) ** 2:9.4f}"
        )


if __name__ == "__main__":
    main()
