"""Column tables: row access, the JSON writer and the report serialiser.

The reference for every text is json.dumps over the rows as plain dicts
(`tests/oracles.py`); the writer must match it byte for byte.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo import _floattext, _table
from circgeo.core import load_spec
from circgeo.verify import Table, report_to_json, run_suite, write_report

from conftest import fixture_path

from oracles import report_to_json_reference

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e-4, 1e15, 1e16, 1.7976931348623157e308, -2.5]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def reference(rows) -> str:
    return json.dumps(rows, sort_keys=True, separators=(",", ":"), allow_nan=False)


@st.composite
def tables(draw, max_rows=6):
    """A Table of float, float-list and bool columns."""
    n = draw(st.integers(0, max_rows))
    kinds = st.sampled_from(["float", "list", "bool"])
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    columns = {}
    for key in keys:
        kind = draw(kinds)
        if kind == "float":
            columns[key] = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        elif kind == "list":
            k = draw(st.integers(0, 3))
            flat = draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))
            columns[key] = np.array(flat, dtype=float).reshape(n, k)
        else:
            columns[key] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    return Table(columns)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_table_json_equals_json_dumps_of_its_rows(table):
    rows = list(table)
    assert len(rows) == len(table)
    assert report_to_json(table) == reference(rows) + "\n"
    assert report_to_json({"t": table, "rows": [table]}) == report_to_json_reference(
        {"t": table, "rows": [table]}
    )


@settings(max_examples=100, deadline=None)
@given(tables(max_rows=4), st.data())
def test_non_finite_values_raise_like_json_dumps(table, data):
    floats = [k for k, c in table.columns.items() if c.dtype == float and c.size]
    if not floats:
        return
    key = data.draw(st.sampled_from(floats))
    column = table.columns[key].copy()
    column.flat[data.draw(st.integers(0, column.size - 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    bad = Table({**table.columns, key: column})
    with pytest.raises(ValueError) as expected:
        reference(list(bad))
    for write in (lambda: report_to_json(bad), lambda: report_to_json({"cases": bad})):
        with pytest.raises(ValueError) as raised:
            write()
        assert str(raised.value) == str(expected.value)


LEAVES = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | FLOATS | st.text(max_size=5)
    | tables(max_rows=3)
)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20,
    )
)
def test_report_to_json_equals_json_dumps_with_tables_as_lists(report):
    assert report_to_json(report) == report_to_json_reference(report)


def test_rows_are_plain_typed_dicts():
    table = Table(
        {
            "x": np.array([1.5, -0.0]),
            "flag": np.array([True, False]),
            "v": np.array([[1.0, 2.0], [3.0, 4.0]]),
        }
    )
    assert list(table.columns) == ["flag", "v", "x"]
    assert len(table) == 2
    assert table[1] == {"flag": False, "v": [3.0, 4.0], "x": -0.0}
    assert table[-1] == table[1] and list(table) == [table[0], table[1]]
    assert type(table[0]["flag"]) is bool and type(table[0]["x"]) is float
    assert math.copysign(1.0, table[1]["x"]) == -1.0
    with pytest.raises(IndexError):
        table[2]
    assert isinstance(table[::-1], Table) and table[::-1] == [table[1], table[0]]
    assert table[5:] == [] and report_to_json(table[:1]) == reference(list(table)[:1]) + "\n"
    (row,) = Table({"a": np.array([2.0])})  # unpacks as a sequence
    assert row == {"a": 2.0}


def test_tables_equal_sequences_of_the_same_rows():
    table = Table({"x": np.array([1.0, -0.0]), "ok": np.array([True, False])})
    rows = [{"ok": True, "x": 1.0}, {"ok": False, "x": -0.0}]
    assert table == rows and rows == table and table == tuple(rows)
    assert table == Table({"x": np.array([1.0, -0.0]), "ok": np.array([True, False])})
    assert table != rows[:1] and table != Table({"x": np.array([1.0, 0.5])}) and table != 1.0
    with pytest.raises(TypeError):
        hash(table)


def test_text_writes_rows_by_layout():
    table = Table({"p": np.array([[0.0, -0.0], [1e16, 5e-324]]), "ok": np.array([True, False])})
    text = table.text(["<[", "p", "] ", "ok", ">\n"])
    assert text == "<[0.0, -0.0] True>\n<[1e+16, 5e-324] False>\n"
    assert Table({"a": np.zeros(0)}).text(["", "a", "\n"]) == ""
    assert report_to_json(Table({"a": np.zeros(0)})) == "[]\n"
    # As `print(f"{value!r}")` writes them; only the JSON writer rejects them.
    assert Table({"a": np.array([math.nan, -math.inf])}).text(["", "a", "\n"]) == "nan\n-inf\n"


def test_integer_columns_are_rejected():
    # json.dumps writes 1, a float64 column would write 1.0.
    with pytest.raises(TypeError):
        Table({"a": np.array([1, 2])})


def test_null_columns_are_rejected():
    # No report has a column that is null in every row.
    with pytest.raises(TypeError):
        Table({"x": None})
    with pytest.raises(TypeError):
        Table({"x": np.ones(2), "y": None})


def test_unserialisable_values_raise_type_error_like_json_dumps():
    with pytest.raises(TypeError):
        json.dumps({"a": {1, 2}})
    with pytest.raises(TypeError):
        report_to_json({"a": [Table({"b": np.ones(1)}), {1, 2}]})


def test_report_formats_the_floats_of_each_run_of_same_column_tables_in_one_pass(monkeypatch):
    spec = load_spec(fixture_path("curved-par"))
    report = run_suite(spec, spec.domain.grid(3), seed=3)
    tables = [c["payload"][k] for c in report["checks"] for k in ("cases", "points") if k in c["payload"]]
    # In document order: the 81 points' mu-law cases, then the parallel-scan rows.
    assert len(tables) == 82 and "cases" in report["checks"][-2]["payload"]
    assert len({tuple(t.columns) for t in tables[:81]}) == 1
    assert tables[81].columns.keys() != tables[0].columns.keys()
    distinct = []
    for run in (tables[:81], tables[81:]):
        floats = [c for t in run for c in t.columns.values() if c.dtype == float]
        distinct.append(len(np.unique(np.concatenate([c.ravel() for c in floats]).view(np.uint64))))
    calls = []
    kernel = _floattext._kernel
    monkeypatch.setattr(_floattext, "_kernel", lambda v: calls.append(len(v)) or kernel(v))
    text = report_to_json(report)
    # One float_text pass per run: each pass takes its run's distinct floats once.
    assert len(calls) == sum(-(-d // _floattext.CHUNK) for d in distinct)
    assert sum(calls) == sum(distinct)
    # A table keeps no texts: a second write formats again.
    assert report_to_json(report) == text and sum(calls) == 2 * sum(distinct)


def test_text_rejects_nul_in_its_layout():
    with pytest.raises(ValueError):
        Table({"a": np.ones(2)}).text(["\0", "a", ""])


@pytest.mark.parametrize("step_bytes", [1, 200, 1 << 17])
def test_tables_with_the_same_columns_are_written_in_one_pass(monkeypatch, step_bytes):
    # Steps of one row, of a few rows across table bounds, and of whole tables.
    monkeypatch.setattr(_table, "_ROWS_BYTES", step_bytes)
    rng = np.random.default_rng(8)

    def table(n):
        columns = {"x": rng.standard_normal(n), "v": rng.standard_normal((n, 2)) * 1e20}
        return Table({**columns, "ok": rng.random(n) < 0.5})

    def other(n):
        return Table({"x": rng.standard_normal(n), "y": rng.standard_normal(n)})

    report = {"a": [table(n) for n in (3, 0, 40, 1, 0, 7)], "b": table(5), "c": table(0)}
    assert report_to_json(report) == report_to_json_reference(report)
    assert [report_to_json(t) for t in report["a"]] == [reference(list(t)) + "\n" for t in report["a"]]
    # Runs of tables whose columns alternate: A, B, A, then B, A, B.
    mixed = {"m": [table(4), other(3), table(30), other(0), table(2), other(20)]}
    assert report_to_json(mixed) == report_to_json_reference(mixed)


def test_every_step_size_from_one_to_twelve_rows_writes_the_same_text(monkeypatch):
    rng = np.random.default_rng(12)

    def table(n):
        columns = {"x": rng.standard_normal(n), "v": rng.standard_normal((n, 2)) * 1e-300}
        return Table({**columns, "ok": rng.random(n) < 0.5})

    # Bounds 0, 0, 1, 4, 4, 44, 44, 45, 48, 48: empty tables first, last and
    # at cuts of 1, 2, 4 and 11 rows.
    report = {"t": [table(n) for n in (0, 1, 3, 0, 40, 0, 1, 3, 0)], "one": table(3)}
    # The widest a row can be: the layout's text, the comma between the two
    # values of "v", the row separator, each float WIDTH bytes and "false"
    # for the flag.
    layout = _table._json_layout(report["one"])
    width = len("".join(layout[0::2]) + ",,") + 3 * _floattext.WIDTH + len("false")
    expected = report_to_json_reference(report)
    for rows in range(1, 13):
        monkeypatch.setattr(_table, "_ROWS_BYTES", rows * width + rows % 2)  # not a multiple
        assert report_to_json(report) == expected


@pytest.mark.parametrize("step_bytes", [1, 60, 200, 1 << 17])
def test_text_with_non_ascii_layout_and_words_is_cut_at_rows_not_characters(
    monkeypatch, step_bytes
):
    # Offsets count bytes: "é" and "¦" are two bytes each, "–" three.
    monkeypatch.setattr(_table, "_ROWS_BYTES", step_bytes)
    table = Table({"a": np.array([0.5, -0.0, 1e16, 3.0, 2.5]), "ok": np.arange(5) % 3 != 1})
    assert table.text(["é<", "a", ">"], row_sep="¦") == "é<0.5>¦é<-0.0>¦é<1e+16>¦é<3.0>¦é<2.5>"
    words = ("ja", "ñein")
    text = table.text(["", "ok", "·", "a", "–"], words=words, row_sep="¦\n")
    rows = [f"{words[1 - row['ok']]}·{row['a']!r}–" for row in table]
    assert text == "¦\n".join(rows)


@pytest.mark.parametrize("name", ["\0", "\0\0", '"\0', "\0\\"])
def test_report_strings_like_the_table_placeholder_are_written_as_themselves(name):
    # The tables are spliced in where the C encoder wrote a placeholder
    # string; a report string that encodes like it must stay itself.
    table = Table({"x": np.array([0.5, -0.0])})
    report = {"name": name, "t": table, "u": [name, table, {name: name}]}
    assert report_to_json(report) == report_to_json_reference(report)


@pytest.mark.parametrize(
    "report",
    [
        {"a": Table({"x": np.array([1.0, math.inf])}), "b": {1, 2}},  # the table first
        {"a": {1, 2}, "b": Table({"x": np.array([math.nan])})},  # the set first
        {"a": [math.nan], "b": Table({"x": np.array([-math.inf])})},
        {"a": Table({"x": np.array([2.0])}), "b": [-math.inf]},
    ],
)
def test_errors_are_raised_in_document_order_before_the_file_is_opened(tmp_path, report):
    with pytest.raises((ValueError, TypeError)) as expected:
        report_to_json_reference(report)
    out = tmp_path / "report.json"
    out.write_text("stale")
    for write in (lambda: report_to_json(report), lambda: write_report(report, out)):
        with pytest.raises(type(expected.value)) as raised:
            write()
        assert str(raised.value) == str(expected.value)
    assert out.read_text() == "stale"  # not opened, so not truncated


def test_write_report_writes_the_text_of_report_to_json(tmp_path):
    spec = load_spec(fixture_path("curved-par"))
    report = run_suite(spec, spec.domain.grid(2), seed=9)
    write_report(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == report_to_json(report)
