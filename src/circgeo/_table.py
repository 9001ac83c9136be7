"""Column tables and their text: rows held as numpy columns, written as
byte matrices with every float as `repr` writes it.

`verify` holds the parallel-scan rows and each point's mu-law cases as
`Table`s; `verify.report_to_json` and `verify.write_report` write the
tables of a report through `_tables_json`, the floats of all of them in one
`_floattext` pass and the rows a step at a time.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from collections.abc import Iterator, Sequence

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
    and `verify.write_report` format the floats of all the tables of a
    report in one pass.  A table keeps no text: each write formats its
    floats anew.
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
        (cells,) = _format_floats([[self]])
        return "".join(p for _, p in _tables_text([self], cells, layout, words, comma, row_sep))

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
        return "".join(p for _, p in _tables_json([self]))


def _format_floats(groups: list[list[Table]]) -> list[tuple]:
    """The float texts of groups of tables, the tables of a group with the
    same columns: one sort of all their bit patterns and one `float_text`
    pass over the distinct ones.

    Returns per group (texts, lengths, index): the texts (distinct, WIDTH)
    uint8, NUL-padded, and their lengths, shared by all groups, and per
    float column key the row in texts of each value of that column over
    all the group's tables, one table after another (int32: 2^31 distinct
    floats would be 16 GB of input).
    """
    from ._floattext import CHUNK, float_text  # compiled only where a table is written

    keys = [
        [k for k, c in g[0].columns.items() if c is not None and c.dtype == np.float64]
        for g in groups
    ]
    values = [t.columns[k].ravel() for g, ks in zip(groups, keys) for k in ks for t in g]
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
    cells, end = [], 0
    for g, ks in zip(groups, keys):
        index = {}
        for k in ks:
            shape = (sum(len(t) for t in g), *g[0].columns[k].shape[1:])
            index[k] = inverse[end : end + math.prod(shape)].reshape(shape)
            end += math.prod(shape)
        cells.append((texts, lengths, index))
    return cells


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


def _tables_text(
    tables: list[Table], cells, layout, words, comma, row_sep
) -> Iterator[tuple[int, str]]:
    """`Table.text` of each of `tables` as (i, piece) pairs in table order,
    the pieces of table i to be joined; the tables have the same columns,
    and `cells` are their float texts from `_format_floats`.

    The rows are written in steps of about `_ROWS_BYTES`, cut at table
    bounds where they can be.  A step is a byte matrix, filled slot by slot
    (the texts of `layout`, each float's text cut to the widest in the step,
    the flags and nulls), its NULs dropped at once, and split by table at
    the row lengths summed from the slots.  Only the step is held: its
    pieces are yielded before the next step is written.
    """
    from ._floattext import WIDTH

    if any("\0" in t for t in [*layout[0::2], *words, comma, row_sep]):
        raise ValueError("table text may not hold a NUL character")
    texts, lengths, index = cells

    # Each slot of a row: (bytes wide at most, a function of the step's rows
    # c0:c1 giving a byte row or a NUL-padded byte matrix, and the characters
    # it writes in each row).
    def literal(text):
        raw = np.frombuffer(text.encode(), np.uint8)
        return len(raw), lambda c0, c1: (raw, len(text))

    packed, word_chars = _packed(words[:2]), np.array([len(w) for w in words[:2]])

    def flag(key):
        column = np.concatenate([t.columns[key] for t in tables])  # a byte a row

        def fill(c0, c1):
            choice = np.where(column[c0:c1], 0, 1)
            return packed.take(choice, axis=0), word_chars.take(choice)

        return packed.shape[1], fill

    def number(rows):
        def fill(c0, c1):
            cell = rows[c0:c1]
            chars = lengths.take(cell)
            return texts.take(cell, axis=0)[:, : chars.max(initial=0)], chars

        return WIDTH, fill

    slots = []
    for j, key in enumerate(layout[1::2]):
        slots.append(literal(layout[2 * j]))
        column = tables[0].columns[key]
        if column is None:
            slots.append(literal(words[2]))
        elif column.dtype == np.bool_:
            slots.append(flag(key))
        else:
            for m in range(1 if column.ndim == 1 else column.shape[1]):
                rows = index[key] if column.ndim == 1 else index[key][:, m]
                slots += [literal(comma)] * bool(m) + [number(rows)]
    slots.append(literal(layout[-1] + row_sep))

    bounds = list(itertools.accumulate([len(t) for t in tables], initial=0))
    cuts = _steps(bounds, max(1, _ROWS_BYTES // sum(w for w, _ in slots)))
    t = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        filled = [fill(c0, c1) for _, fill in slots]
        matrix = np.empty((c1 - c0, sum(f.shape[-1] for f, _ in filled)), np.uint8)
        at = 0
        for f, _ in filled:
            matrix[:, at : at + f.shape[-1]] = f
            at += f.shape[-1]
        chars = sum((c for _, c in filled), np.zeros(c1 - c0, np.int64))
        del filled
        text = str(matrix[matrix != 0].data, "utf-8")  # decoded from the buffer, no bytes copy
        offsets = [0, *np.cumsum(chars).tolist()]  # the character where each row starts
        while t < len(tables) and bounds[t] < c1:
            start, end = offsets[max(bounds[t], c0) - c0], offsets[min(bounds[t + 1], c1) - c0]
            if bounds[t + 1] <= c1:
                end -= len(row_sep)  # after the table's last row
            if end > start:
                yield t, text[start:end]
            if bounds[t + 1] > c1:
                break  # the table goes on in the next step
            t += 1


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


def _tables_json(tables: list[Table]) -> Iterator[tuple[int, str]]:
    """The JSON arrays of `tables` (floats known to be finite) as (i, piece)
    pairs in table order, "[" first and "]" last of each table.

    The tables with the same columns are written in one pass of
    `_tables_text`, the floats of all of them formatted in one pass when
    the first piece is asked for; the passes are merged by table, so only a
    step of each is held at a time.
    """
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(tables):
        shape = [(k, None if c is None else (c.dtype, c.shape[1:])) for k, c in t.columns.items()]
        groups.setdefault(tuple(shape), []).append(i)
    members = list(groups.values())
    cells = _format_floats([[tables[i] for i in m] for m in members])

    def written(members, cells):
        group = [tables[i] for i in members]
        layout = _json_layout(group[0])
        for j, piece in _tables_text(group, cells, layout, ("true", "false", "null"), ",", ","):
            yield members[j], piece

    merged = heapq.merge(*map(written, members, cells), key=operator.itemgetter(0))
    item = next(merged, None)
    for i in range(len(tables)):
        yield i, "["
        while item is not None and item[0] == i:
            yield item
            item = next(merged, None)
        yield i, "]"
