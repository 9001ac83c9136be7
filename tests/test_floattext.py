"""The float text kernel against `repr`, value for value.

`float_text` must write exactly what `repr` writes for every float64:
the edges of the algorithm (powers of two and ten and their neighbours,
the positional/scientific boundaries, the integer fast path, the normal
range's ends), the values it hands to `repr` (zeros, subnormals, NaN,
+-inf), random bit patterns and a Hypothesis property.
`scripts/float_text_fuzz.py` runs the random comparison at any size.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo import _floattext
from circgeo._floattext import CHUNK, WIDTH, float_text
from circgeo.verify import Table


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    rows = float_text(values)
    assert rows.shape == (len(values), WIDTH)
    got = [row.tobytes().rstrip(b"\0") for row in rows]
    assert all(b"\0" not in text for text in got)  # NUL only as trailing padding
    want = [repr(v).encode() for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the neighbours of the largest float are +-inf
        around = [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
    both = np.concatenate(around)
    return np.concatenate([both, -both])


def test_powers_of_two_and_their_neighbours():
    assert_reprs(with_neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)]))


def test_powers_of_ten_and_their_neighbours():
    assert_reprs(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_positional_and_scientific_boundaries():
    edges = [1e-4, 1e-5, 1e16, 1e15, 9.999999999999999e-05, 0.0001000000000000001, 123456789012345.6]
    edges += [9999999999999998.0, 1234567890123456.8, 0.00012345678901234567, 1.5e-5]
    assert_reprs(with_neighbours(edges))


def test_integers_near_two_to_the_53():
    assert_reprs(with_neighbours([2.0**53 + i for i in range(-40, 41)] + [2.0**52 + 0.5, 2.0**54]))


def test_range_ends_zeros_and_subnormals():
    smallest_normal, largest = 2.2250738585072014e-308, 1.7976931348623157e308
    subnormals = np.random.default_rng(5).integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64)
    assert_reprs(with_neighbours([smallest_normal, largest, 5e-324, 0.0, -0.0]))
    assert_reprs(np.concatenate([subnormals, -subnormals]))


def test_nan_and_inf_are_written_as_repr_writes_them():
    assert_reprs([math.nan, math.inf, -math.inf, -math.nan])
    table = Table({"x": np.array([math.nan, -math.inf, math.inf, 1.5])})
    assert table.text(["", "x", "\n"]) == "nan\n-inf\ninf\n1.5\n"


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_reprs(bits.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_matches_repr_on_any_floats(values):
    assert_reprs(values)


def test_power_table_entries_lie_in_range():
    # g(k) = floor(10^-k 2^-r) + 1 in [2^125, 2^126) for every decimal
    # exponent of a normal double.
    k = np.arange(-324, 293, dtype=np.int64)
    g1, g0 = _floattext._powers(k)
    g = [(int(a) << 63) | int(b) for a, b in zip(g1, g0)]
    assert all(2**125 <= v < 2**126 for v in g)


def test_long_input_runs_in_chunks(monkeypatch):
    calls = []
    kernel = _floattext._kernel
    monkeypatch.setattr(_floattext, "_kernel", lambda v: calls.append(len(v)) or kernel(v))
    values = np.linspace(-3.0, 7.0, 2 * CHUNK + 5)
    assert_reprs(values)
    assert calls == [CHUNK, CHUNK, 5]
    assert float_text(np.zeros(0)).shape == (0, WIDTH)
