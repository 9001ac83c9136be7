"""Column tables and the one writer of report text.

`Table` holds rows as numpy columns: `verify` keeps the parallel-scan rows
and each point's mu-law cases in them.  This module alone turns a report
that holds tables into text.  `report_to_json` and `write_report`
(re-exported by `verify`, where `cli` and the tests call them) let the C
encoder write everything but the tables, then splice in each table's JSON
array, written from its columns; `Table.text` writes one table's rows by
a layout (`scan`'s stdout).  Each run of consecutive tables with the same
columns has its floats formatted in one `_floattext` pass, as `repr`
writes them, and its rows written as byte matrices a fixed number of rows
at a time.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["Table", "report_to_json", "write_report"]


class Table(Sequence):
    """Rows held as columns: to Python, a read-only sequence of row dicts.

    `columns` maps each key, in sorted order, to an array whose first axis
    runs over the rows: float64 (n,) for a number per row, float64 (n, k)
    for a list of k numbers, or bool (n,) for a flag; there is at least one
    column, and none is changed after the table is made.  Row dicts are
    built on demand, a slice is a `Table`, and a table equals any sequence
    of the same rows.

    `text`, and `report_to_json` for a report holding tables, write all
    rows from the columns as byte matrices, the floats as `repr` writes
    them, by `_floattext.float_text`, each distinct bit pattern once (so
    -0.0 stays -0.0).  A table keeps no text: each write formats its
    floats anew.
    """

    def __init__(self, columns: dict):
        self.columns = {key: columns[key] for key in sorted(columns)}
        for key, column in self.columns.items():
            if getattr(column, "dtype", None) not in (np.float64, np.bool_):
                raise TypeError(f"column {key!r} is {type(column).__name__}, not float64 or bool")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Table({k: c[index] for k, c in self.columns.items()})
        i = range(len(self))[operator.index(index)]
        return {k: c[i].tolist() for k, c in self.columns.items()}

    def __iter__(self):
        values = [c.tolist() for c in self.columns.values()]
        return (dict(zip(self.columns, row)) for row in zip(*values))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def text(self, layout, words=("True", "False"), comma=", ", row_sep="") -> str:
        """All rows written by `layout`, [text, key, text, ..., key, text]:
        floats by repr, flags as `words`, the values of a list column
        joined by `comma`; rows joined by `row_sep`.  No text may hold a
        NUL character."""
        cells = _format_floats([self])
        return "".join(p for _, p in _tables_text([self], cells, layout, words, comma, row_sep))

    def _check_finite(self) -> None:
        """Raise the C encoder's ValueError if a float is NaN or +-inf."""
        if not all(np.isfinite(c).all() for c in self.columns.values()):
            json.dumps(list(self), sort_keys=True, allow_nan=False)


def _format_floats(tables: list[Table]) -> tuple:
    """The float texts of tables with the same columns: one sort of all
    their bit patterns and one `float_text` pass over the distinct ones.

    Returns (texts, lengths, index): the texts (distinct, WIDTH) uint8,
    NUL-padded, and their lengths, and per float column key the row in
    texts of each value of that column over all the tables, one table
    after another (int32: 2^31 distinct floats would be 16 GB of input).
    """
    from ._floattext import CHUNK, float_text  # compiled only where a table is written

    keys = [k for k, c in tables[0].columns.items() if c.dtype == np.float64]
    values = [t.columns[k].ravel() for k in keys for t in tables]
    bits = np.concatenate([np.zeros(0)] + values).view(np.uint64)
    del values
    # np.unique(bits, return_inverse=True), each temporary freed once used,
    # so that the kernel runs beside the distinct values and the inverse
    # only.  On verify-curved (perfbench, 10 alternating pairs) this keeps
    # the peak RSS 1.0 MB lower than np.unique, and counting the lengths a
    # chunk at a time a further 1.5 MB lower than one count_nonzero.
    order = bits.argsort()
    bits = bits[order]
    first = np.empty(len(bits), bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    inverse = np.empty(len(bits), np.int32)
    inverse[order] = np.cumsum(first, dtype=np.int32) - np.int32(1)
    distinct = bits[first].view(np.float64)
    del order, bits, first
    texts = float_text(distinct)
    del distinct
    lengths = np.empty(len(texts), np.uint8)  # counted a chunk at a time: no bool copy of texts
    for start in range(0, len(texts), CHUNK):
        lengths[start : start + CHUNK] = np.count_nonzero(texts[start : start + CHUNK], axis=1)
    index, end = {}, 0
    for k in keys:
        shape = (sum(len(t) for t in tables), *tables[0].columns[k].shape[1:])
        index[k] = inverse[end : end + math.prod(shape)].reshape(shape)
        end += math.prod(shape)
    return texts, lengths, index


# Bytes of row matrix per step of `_tables_text`: the matrix and its
# temporaries stay small next to the report, and a step still spreads the
# per-slot work over hundreds of rows.
_ROWS_BYTES = 1 << 17


def _tables_text(
    tables: list[Table], cells, layout, words, comma, row_sep
) -> Iterator[tuple[int, str]]:
    """`Table.text` of each of `tables` as (i, piece) pairs in table order,
    the pieces of table i to be joined; the tables have the same columns,
    and `cells` are their float texts from `_format_floats`.

    The rows of all the tables are written in steps of a fixed number of
    rows, about `_ROWS_BYTES` of matrix, wherever the table bounds fall.  A
    step is a byte matrix, filled slot by slot (the texts of `layout`, each
    float's text cut to the widest in the step, the flags); the
    byte where each row starts is counted off the matrix, its NULs are
    dropped at once, and each table's share of the step is decoded from its
    own slice of the bytes.  Only the step is held: its pieces are yielded
    before the next step is written.
    """
    from ._floattext import WIDTH

    if any("\0" in t for t in [*layout[0::2], *words, comma, row_sep]):
        raise ValueError("table text may not hold a NUL character")
    texts, lengths, index = cells

    # Each slot of a row: (bytes wide at most, a function of the step's rows
    # c0:c1 giving a byte row or a NUL-padded byte matrix).
    def literal(text):
        raw = np.frombuffer(text.encode(), np.uint8)
        return len(raw), lambda c0, c1: raw

    packed = np.array([w.encode() for w in words]).view(np.uint8).reshape(2, -1)

    def flag(key):
        column = np.concatenate([t.columns[key] for t in tables])  # a byte a row
        return packed.shape[1], lambda c0, c1: packed.take(np.where(column[c0:c1], 0, 1), axis=0)

    def number(rows):
        def fill(c0, c1):
            cell = rows[c0:c1]
            return texts.take(cell, axis=0)[:, : lengths.take(cell).max(initial=0)]

        return WIDTH, fill

    slots = []
    for j, key in enumerate(layout[1::2]):
        slots.append(literal(layout[2 * j]))
        column = tables[0].columns[key]
        if column.dtype == np.bool_:
            slots.append(flag(key))
        else:
            for m in range(1 if column.ndim == 1 else column.shape[1]):
                rows = index[key] if column.ndim == 1 else index[key][:, m]
                slots += [literal(comma)] * bool(m) + [number(rows)]
    slots.append(literal(layout[-1] + row_sep))

    bounds = list(itertools.accumulate([len(t) for t in tables], initial=0))
    size = max(1, _ROWS_BYTES // sum(w for w, _ in slots))
    sep, t = len(row_sep.encode()), 0
    for c0 in range(0, bounds[-1], size):
        c1 = min(c0 + size, bounds[-1])
        filled = [fill(c0, c1) for _, fill in slots]
        matrix = np.empty((c1 - c0, sum(f.shape[-1] for f in filled)), np.uint8)
        at = 0
        for f in filled:
            matrix[:, at : at + f.shape[-1]] = f
            at += f.shape[-1]
        del filled
        kept = matrix != 0
        # The byte where each row starts; summing `kept` as bytes into int32
        # takes half the time of a sum of bools.
        offsets = [0, *np.cumsum(kept.view(np.uint8).sum(axis=1, dtype=np.int32)).tolist()]
        data = matrix[kept].data
        while t < len(tables) and bounds[t] < c1:
            start, end = offsets[max(bounds[t], c0) - c0], offsets[min(bounds[t + 1], c1) - c0]
            if bounds[t + 1] <= c1:
                end -= sep  # after the table's last row
            if end > start:
                yield t, str(data[start:end], "utf-8")  # decoded from the buffer, no bytes copy
            if bounds[t + 1] > c1:
                break  # the table goes on in the next step
            t += 1


def _json_layout(table: Table) -> list:
    """The layout that writes a row of `table` as a JSON object."""
    layout = [""]
    for key, column in table.columns.items():
        wide = column.ndim == 2
        layout[-1] += f",{json.dumps(key)}:" + "[" * wide
        layout += [key, "]" * wide]
    layout[0], layout[-1] = "{" + layout[0][1:], layout[-1] + "}"
    return layout


def _report_pieces(report: dict) -> Iterator[str]:
    """The text of `report_to_json(report)` as pieces, in document order.

    Every error the text would raise (NaN or +-inf, a value JSON cannot
    write) is raised by this call, in document order: the C encoder writes
    everything but the tables at once, each table as a placeholder string
    once its floats are known to be finite.  The pieces are made as they
    are taken: the encoded text between the tables, and the tables' rows a
    step at a time.  A report string equal to the placeholder is told apart
    by count and a longer placeholder taken.
    """
    mark = "\0"
    while True:
        tables: list[Table] = []

        def placeholder(value):
            if isinstance(value, Table):
                value._check_finite()
                tables.append(value)
                return mark
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

        text = json.JSONEncoder(
            sort_keys=True, allow_nan=False, separators=(",", ":"), default=placeholder
        ).encode(report)
        token = json.dumps(mark)
        if text.count(token) == len(tables):
            return _spliced(text, token, tables)
        mark += "\0"


def _spliced(text: str, token: str, tables: list[Table]) -> Iterator[str]:
    """`text` with each `token` in turn replaced by the JSON array of the
    next of `tables` (floats known to be finite), as pieces, and a newline.

    Each run of consecutive tables with the same columns is written in one
    pass of `_tables_text`, its floats formatted in one pass when the run
    is reached, so only a step of one run is held at a time.
    """

    def shape(t: Table) -> list:
        return [(k, c.dtype, c.shape[1:]) for k, c in t.columns.items()]

    at = 0
    for _, run in itertools.groupby(tables, shape):
        run = list(run)
        words = ("true", "false")
        pieces = _tables_text(run, _format_floats(run), _json_layout(run[0]), words, ",", ",")
        item = next(pieces, None)
        for j in range(len(run)):
            end = text.index(token, at)
            yield text[at:end] + "["
            at = end + len(token)
            while item is not None and item[0] == j:
                yield item[1]
                item = next(pieces, None)
            yield "]"
    yield text[at:] + "\n"


def report_to_json(report: dict) -> str:
    """The report as compact, strict JSON (no NaN or Infinity) with sorted
    keys, so equal reports give equal bytes.

    The text equals json.dumps(report, sort_keys=True, allow_nan=False,
    separators=(",", ":")) with every `Table` read as its list of rows, and
    a newline; the floats of each run of same-column tables are formatted
    in one pass.
    """
    return "".join(_report_pieces(report))


def write_report(report: dict, path) -> None:
    """Write `report_to_json(report)` to the file at `path` piece by piece,
    never holding the whole text.  Every error of the text is raised before
    the file is opened, so a report that cannot be written leaves no
    truncated file."""
    pieces = _report_pieces(report)
    with open(path, "w") as out:
        out.writelines(pieces)
