"""Column tables and their text: rows held as numpy columns, written as
byte matrices with every float as `repr` writes it.

`verify` holds the parallel-scan rows and each point's mu-law cases as
`Table`s; `verify.report_to_json` writes the tables of a report through
`_tables_json`, the floats of all of them in one `_floattext` pass.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Sequence

import numpy as np

__all__ = ["Table"]


class Table(Sequence):
    """Rows held as columns: to Python, a read-only sequence of row dicts.

    `columns` maps each key, in sorted order, to an array whose first axis
    runs over the rows: float64 (n,) for a number per row, float64 (n, k)
    for a list of k numbers, bool (n,) for a flag, or None for null in
    every row; at least one column is an array, and none is changed after
    the table is made.  Row dicts are built on demand, a slice is a
    `Table`, and a table equals any sequence of the same rows.

    `text` and `to_json` write all rows from the columns as byte matrices,
    the floats as `repr` writes them, by `_floattext.float_text`, each
    distinct bit pattern once (so -0.0 stays -0.0); `verify.report_to_json`
    formats the floats of all the tables of a report in one pass.  A table
    keeps no text: each write formats its floats anew.
    """

    def __init__(self, columns: dict):
        self.columns = {key: columns[key] for key in sorted(columns)}
        for key, column in self.columns.items():
            if column is not None and column.dtype not in (np.float64, np.bool_):
                raise TypeError(f"column {key!r} is {column.dtype}, not float64 or bool")
        self._length = next(len(c) for c in self.columns.values() if c is not None)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Table({k: None if c is None else c[index] for k, c in self.columns.items()})
        i = range(self._length)[operator.index(index)]
        return {k: None if c is None else c[i].tolist() for k, c in self.columns.items()}

    def __iter__(self):
        values = [[None] * self._length if c is None else c.tolist() for c in self.columns.values()]
        return (dict(zip(self.columns, row)) for row in zip(*values))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def text(self, layout, words=("True", "False", "None"), comma=", ", row_sep="") -> str:
        """All rows written by `layout`, [text, key, text, ..., key, text]:
        floats by repr, flags and nulls as `words`, the values of a list
        column joined by `comma`; rows joined by `row_sep`.  No text may
        hold a NUL character."""
        return "".join(_tables_text([self], _format_floats([self]), layout, words, comma, row_sep)[0])

    def _check_finite(self) -> None:
        """Raise the C encoder's ValueError if a float is NaN or +-inf."""
        floats = [c for c in self.columns.values() if c is not None and c.dtype == np.float64]
        if not all(np.isfinite(c).all() for c in floats):
            json.dumps(list(self), sort_keys=True, allow_nan=False)

    def to_json(self) -> str:
        """The rows as a JSON array of objects, byte-identical to
        json.dumps(list(self), sort_keys=True, separators=(",", ":"),
        allow_nan=False), which also raises the same ValueError on NaN
        or +-inf."""
        self._check_finite()
        return "".join(_tables_json([self])[0])


def _format_floats(tables: list[Table]) -> tuple:
    """The float texts of `tables`: one sort-based unique over all their bit
    patterns and one `float_text` pass over the distinct ones.  Returns the
    texts (distinct, WIDTH) uint8, NUL-padded, their lengths, and per table
    a dict giving, per float column, the row of each value's text in the
    column's shape."""
    from ._floattext import float_text  # compiled only where a table is written

    columns = [
        (i, key, c) for i, t in enumerate(tables) for key, c in t.columns.items()
        if c is not None and c.dtype == np.float64
    ]
    bits = np.concatenate([np.zeros(0)] + [c.ravel() for _, _, c in columns]).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = float_text(distinct.view(np.float64))
    lengths = np.count_nonzero(texts, axis=1).astype(np.uint8)
    inverse = inverse.astype(np.int32)  # 2^31 distinct floats would be 16 GB of input
    index: list[dict] = [{} for _ in tables]
    end = 0
    for i, key, c in columns:
        end += c.size
        index[i][key] = inverse[end - c.size : end].reshape(c.shape)
    return texts, lengths, index


# Bytes of row matrix per step of `_tables_text`: the matrix and its
# temporaries stay small next to the report, and a step still spreads the
# per-slot work over hundreds of rows.
_ROWS_BYTES = 1 << 17


def _steps(bounds: list[int], size: int) -> list[int]:
    """Row cuts into steps of at most `size` rows, at table bounds except
    inside a table longer than a step."""
    cuts = [0]
    for first, end in zip(bounds[:-1], bounds[1:]):
        if end - cuts[-1] > size and first > cuts[-1]:
            cuts.append(first)
        while end - cuts[-1] > size:
            cuts.append(cuts[-1] + size)
    return cuts + [bounds[-1]] * (cuts[-1] < bounds[-1])


def _tables_text(tables: list[Table], cells, layout, words, comma, row_sep) -> list[list[str]]:
    """`Table.text` of each of `tables`, as pieces to join, written in one
    pass; the tables have the same columns, and `cells` are their float
    texts from `_format_floats`.

    Every row is a row of a byte matrix, filled slot by slot: the texts of
    `layout`, each float's text cut to the widest in its column, the flags
    and nulls.  The matrix is written about `_ROWS_BYTES` at a time, cut at
    table bounds where it can be, every NUL dropped at once; the row
    lengths, summed from the slots, split each step's text by table.
    """
    if any("\0" in t for t in [*layout[0::2], *words, comma, row_sep]):
        raise ValueError("table text may not hold a NUL character")
    texts, lengths, index = cells
    bounds = list(itertools.accumulate([len(t) for t in tables], initial=0))

    def joined(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def literal(text):
        raw = text.encode()
        return len(raw), np.frombuffer(raw, np.uint8), len(text)

    # Each slot of a row: (bytes wide, its bytes or a function of a row
    # slice giving a NUL-padded byte matrix, characters in each row).
    slots = []
    for j, key in enumerate(layout[1::2]):
        slots.append(literal(layout[2 * j]))
        column = tables[0].columns[key]
        if column is None:
            slots.append(literal(words[2]))
        elif column.dtype == np.bool_:
            choice = np.where(joined([t.columns[key] for t in tables]), 0, 1)
            packed = _packed(words[:2])
            fill = lambda rows, c=choice, p=packed: p.take(c[rows], axis=0)  # noqa: E731
            slots.append((packed.shape[1], fill, np.array([len(w) for w in words[:2]]).take(choice)))
        else:
            text_rows = joined([table_index[key] for table_index in index])
            w = int(lengths.take(text_rows).max(initial=0))  # the widest text in the column
            for m in range(1 if column.ndim == 1 else column.shape[1]):
                cell = text_rows if column.ndim == 1 else text_rows[:, m]
                fill = lambda rows, i=cell, w=w: texts.take(i[rows], axis=0)[:, :w]  # noqa: E731
                slots += [literal(comma)] * bool(m) + [(w, fill, lengths.take(cell))]
    slots.append(literal(layout[-1] + row_sep))

    width = sum(slot[0] for slot in slots)
    offsets = np.zeros(bounds[-1] + 1, np.int64)  # the character where each row starts
    np.cumsum(sum((slot[2] for slot in slots), offsets[1:]), out=offsets[1:])  # in int64
    starts = offsets[bounds[:-1]].tolist()
    ends = [max(a, b - len(row_sep)) for a, b in zip(starts, offsets[bounds[1:]].tolist())]
    pieces: list[list[str]] = [[] for _ in tables]
    cuts = _steps(bounds, max(1, _ROWS_BYTES // max(1, width)))
    t = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        matrix = np.empty((c1 - c0, width), np.uint8)
        at = 0
        for w, fill, _ in slots:
            matrix[:, at : at + w] = fill if isinstance(fill, np.ndarray) else fill(slice(c0, c1))
            at += w
        text = str(matrix[matrix != 0].data, "utf-8")  # decoded from the buffer, no bytes copy
        base, top = int(offsets[c0]), int(offsets[c1])
        while t < len(tables) and bounds[t] < c1:
            a, b = max(starts[t], base), min(ends[t], top)
            if b > a:
                pieces[t].append(text[a - base : b - base])
            if bounds[t + 1] > c1:
                break
            t += 1
    return pieces


def _packed(words) -> np.ndarray:
    """The words as rows of bytes padded with NULs."""
    raw = [w.encode() for w in words]
    out = np.zeros((len(raw), max(map(len, raw))), np.uint8)
    for row, word in zip(out, raw):
        row[: len(word)] = np.frombuffer(word, np.uint8)
    return out


def _json_layout(table: Table) -> list:
    """The layout that writes a row of `table` as a JSON object."""
    layout = [""]
    for key, column in table.columns.items():
        wide = column is not None and column.ndim == 2
        layout[-1] += f",{json.dumps(key)}:" + "[" * wide
        layout += [key, "]" * wide]
    layout[0], layout[-1] = "{" + layout[0][1:], layout[-1] + "}"
    return layout


def _tables_json(tables: list[Table]) -> list[list[str]]:
    """The JSON arrays of `tables` (floats known to be finite), as pieces to
    join, formatted in one pass; the tables with the same columns are
    written in one pass."""
    texts, lengths, index = _format_floats(tables)
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(tables):
        shape = [(k, None if c is None else (c.dtype, c.shape[1:])) for k, c in t.columns.items()]
        groups.setdefault(tuple(shape), []).append(i)
    out: list[list[str]] = [[] for _ in tables]
    for members in groups.values():
        group = [tables[i] for i in members]
        cells = texts, lengths, [index[i] for i in members]
        rows = _tables_text(group, cells, _json_layout(group[0]), ("true", "false", "null"), ",", ",")
        for i, pieces in zip(members, rows):
            out[i] = ["[", *pieces, "]"]
    return out
