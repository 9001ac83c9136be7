"""Specs generated from the paper's closed forms, run through the whole suite.

In the coordinates y_k = f_k . x of the real DFT basis f0 = (1,1,1,1)/2,
f1 = (1,0,-1,0)/sqrt 2, f2 = (1,-1,1,-1)/2, f3 = (0,1,0,-1)/sqrt 2, every
circulant metric is diagonal, g = l0 dy0^2 + l1 (dy1^2 + dy3^2) + l2 dy2^2,
and A = (l0 + 2 l1 + l2)/4, B = (l0 - l2)/4, C = (l0 - 2 l1 + l2)/4 is
admissible exactly when 0 < l1 < l2 < l0.  The strategies below write
A, B and C as field text from eigenvalue functions l_k, with each y_k
written out in x1..x4, in three families:

  parallel   l0(y0), l2(y2), l1(y1, y3): a product of two lines and a
             conformal surface, on which q is parallel, so all seven
             checks pass;
  cone       l1 = (a(y1, y3)(y0 + k))^2 with l0 and l2 constant: a cone
             over a surface, times a line, whose curvature operator has
             rank one; the curvature identity, the sectional relations
             and the mu law hold, and the parallel condition fails;
  perturbed  a parallel spec with one l_k also depending on a foreign y:
             the curvature identity fails at some point.

These test the pipeline (parse, jets, metric, curvature, checks) against
the paper's statements rather than against a second implementation.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circgeo.core import ManifoldSpec
from circgeo.verify import DEFAULT_TOLERANCES, KNOWN_CHECKS, run_suite

# y_k = f_k . x, written out; on the box [-1, 1]^4, |y0|, |y2| <= 2 and
# |y1|, |y3| <= sqrt 2.
Y = (
    "0.5*(x1 + x2 + x3 + x4)",
    "0.7071067811865476*(x1 - x3)",
    "0.5*(x1 - x2 + x3 - x4)",
    "0.7071067811865476*(x2 - x4)",
)
# Shapes of one coordinate y, each at most 1 in size for |y| <= 2.
SHAPES = ("sin({y})", "cos({y})", "0.5*{y}", "0.25*{y}^2", "exp(0.25*{y}) - 1")
DOMAIN = {"min": [-1, -1, -1, -1], "max": [1, 1, 1, 1]}
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def spec_text(l0: str, l1: str, l2: str, name: str) -> ManifoldSpec:
    """The spec whose circulant eigenvalues are the fields l0, l1, l2."""
    return ManifoldSpec.from_dict(
        {
            "name": name,
            "A": f"0.25*(({l0}) + 2*({l1}) + ({l2}))",
            "B": f"0.25*(({l0}) - ({l2}))",
            "C": f"0.25*(({l0}) - 2*({l1}) + ({l2}))",
            "domain": DOMAIN,
        }
    )


# An amplitude of a shape, at least 0.05 in size so that no shape drops out.
AMPLITUDES = st.floats(0.05, 0.3) | st.floats(-0.3, -0.05)


@st.composite
def term(draw, k: int, size: float = 1.0) -> str:
    """The text " + c*(shape of y_k)", at most 0.3 size in size on the box."""
    shape = draw(st.sampled_from(SHAPES)).format(y=f"({Y[k]})")
    return f" + {size * draw(AMPLITUDES)!r}*({shape})"


def varying(base: float, ks: tuple[int, ...], size: float = 1.0):
    """Field text: base plus a term in each y_k of ks."""
    return st.tuples(*(term(k, size) for k in ks)).map(lambda terms: repr(base) + "".join(terms))


# l0(y0) in [3.7, 4.3], l1(y1, y3) in [0.4, 1.6] and l2(y2) in [2.2, 2.8]; a
# foreign term moves one by at most 0.3 and keeps them apart.
OWN = {0: (0,), 1: (1, 3), 2: (2,)}
PARALLEL = st.tuples(varying(4.0, OWN[0]), varying(1.0, OWN[1]), varying(2.5, OWN[2]))


@st.composite
def parallel_specs(draw) -> ManifoldSpec:
    return spec_text(*draw(PARALLEL), "parallel")


@st.composite
def cone_specs(draw) -> ManifoldSpec:
    """l1 = (a(y1, y3)(y0 + k))^2 with a in [0.07, 0.13] and k in [3, 5], so
    that 0 < l1 <= 0.83 < l2 = 1.5 < l0 = 3."""
    a, k = draw(varying(0.1, OWN[1], size=0.05)), draw(st.floats(3.0, 5.0))
    return spec_text("3", f"(({a})*({Y[0]} + {k!r}))^2", "1.5", "cone")


@st.composite
def perturbed_specs(draw) -> ManifoldSpec:
    """A parallel spec with one eigenvalue also varying along a foreign y."""
    lams = list(draw(PARALLEL))
    k = draw(st.sampled_from(sorted(OWN)))
    lams[k] += draw(term(draw(st.sampled_from([j for j in range(4) if j not in OWN[k]]))))
    return spec_text(*lams, "perturbed")


def entries(spec: ManifoldSpec) -> dict[str, list[dict]]:
    """The suite's entries over the grid of 2 (16 points) by check name."""
    report = run_suite(spec, spec.domain.grid(2), seed=1)
    found = {name: [] for name in KNOWN_CHECKS}
    for entry in report["checks"]:
        found[entry["name"]].append(entry)
    return found


def assert_identity_holds_relatively(identity: list[dict]) -> None:
    """Each point's identity residual within the tolerance times max |R_ijkl|
    itself, not only times max(1, max |R_ijkl|), wherever max |R_ijkl| is
    at least 1e-5: far above the rounding of the residual, which stays
    below 1e-15 on these specs."""
    tolerance = DEFAULT_TOLERANCES["curvature-identity"]
    for entry in identity:
        norm = entry["payload"]["scales"]["max"]
        assert entry["residuals"]["max"] <= tolerance * norm or norm < 1e-5, entry


@SETTINGS
@given(parallel_specs())
def test_parallel_specs_pass_every_check(spec):
    found = entries(spec)
    for name, listed in found.items():
        assert listed and all(e["status"] == "pass" for e in listed), (name, spec.A.source)
    assert_identity_holds_relatively(found["curvature-identity"])


@SETTINGS
@given(cone_specs())
def test_cone_specs_keep_the_identity_without_a_parallel_q(spec):
    found = entries(spec)
    for name in ("curvature-identity", "sectional-relations", "mu-law", "isometry"):
        assert all(e["status"] == "pass" for e in found[name]), (name, spec.C.source)
    assert all(e["status"] == "fail" for e in found["parallel-condition"])
    assert all(e["status"] == "skipped" for e in found["integrability"])
    assert_identity_holds_relatively(found["curvature-identity"])
    # The cone is curved: the relative test above is not vacuous.
    assert max(e["payload"]["scales"]["max"] for e in found["curvature-identity"]) > 1e-5


@SETTINGS
@given(perturbed_specs())
def test_perturbed_specs_fail_the_identity_somewhere(spec):
    statuses = [e["status"] for e in entries(spec)["curvature-identity"]]
    assert "fail" in statuses, (spec.A.source, spec.C.source)


def test_a_cone_spec_is_the_cone_fixture():
    # l1 = (0.1 (y0 + 5))^2, l0 = 3, l2 = 1 gives cone.json's fields.
    spec = spec_text("3", f"(0.1*({Y[0]} + 5))^2", "1", "cone")
    p = np.array([0.3, -0.2, 0.5, 0.1])
    s = 0.5 * p.sum() + 5
    a, b, c = (field.jet(p).value for field in (spec.A, spec.B, spec.C))
    assert abs(a - (1 + 0.005 * s**2)) <= 1e-15 and b == 0.5
    assert abs(c - (1 - 0.005 * s**2)) <= 1e-15
