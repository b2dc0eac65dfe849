"""Serialization of 0/1 matrices: coordinate lists, alist, JSON.

All three formats describe a plain binary matrix and round-trip exactly:
parsing a serialized text recovers an identical in-memory object, and
re-serializing a parsed text reproduces it byte for byte (the writers are
canonical: fixed ordering, fixed padding, no trailing whitespace). The
parsers accept only that order: a text that lists its ones out of order
raises a ValueError naming the line or the entry, as does a blank line
before the last coordinate entry. Writers format their text from the
matrix's CSR arrays; parsers convert the tokens once, check them as
arrays, and name the first failing line or entry.

Alist layout (the LDPC interchange convention):

    line 1: N M                  (columns, then rows)
    line 2: max_col_w max_row_w
    line 3: N column weights
    line 4: M row weights
    next N lines: 1-based row indices of the ones in each column,
                  increasing, zero-padded to max_col_w entries
    next M lines: 1-based column indices of the ones in each row,
                  increasing, zero-padded to max_row_w entries

Coordinate layout: a "rows cols nnz" header followed by one 1-based
"row col" pair per line in row-major order.

JSON layout: an object with "rows", "cols", "nnz" and the row-major 1-based
"entries" pair list, serialized with sorted keys.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import List, Tuple

import numpy as np

from .errors import PARSE_CAP
from .linalg import BinaryMatrix, binary_matrix as matrix_data, int_array, padded_rows


def _lines(table: np.ndarray) -> str:
    """Each row of an int table as a line of space-separated integers."""
    line = " ".join(["%d"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def write_coord(data) -> str:
    data = matrix_data(data)
    entries = np.stack([data.row_ids(), data.indices], axis=1) + 1
    return f"{data.rows} {data.cols} {data.nnz}\n" + _lines(entries)


def _line_ints(number: int, line: str, count: int) -> List[int]:
    """The count integer tokens of a numbered line."""
    tokens = line.split()
    if len(tokens) != count:
        raise ValueError(f"line {number}: expected {count} integers, got {line!r}")
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ValueError(f"line {number}: non-integer token in {line!r}") from None


def _int_or_none(token: str):
    try:
        return int(token)
    except ValueError:
        return None


def _int_table(lines: List[str], width: int) -> Tuple[np.ndarray, int]:
    """The integer tokens of the lines before the first that is not width
    integers, as the rows of a table, and the index of that line
    (len(lines) if none); _line_ints names what is wrong with it."""
    # the lines are split once to count and once to convert, so that no
    # more than one line's tokens are held as strings at a time
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, count=len(lines))
    wrong = counts != (width if 0 <= width <= counts.max(initial=0) else -1)
    first = int(wrong.argmax()) if wrong.any() else len(lines)
    try:
        values = list(map(int, chain.from_iterable(map(str.split, lines[:first]))))
    except ValueError:
        values = list(map(_int_or_none, chain.from_iterable(map(str.split, lines[:first]))))
        first = values.index(None) // width
        values = values[: first * width]
    return int_array(values).reshape(first, max(width, 0)), first


def _declared(rows: int, cols: int) -> None:
    if max(rows, cols) > PARSE_CAP:
        raise ValueError(f"declared shape {rows}x{cols} exceeds the parse cap {PARSE_CAP}")


def parse_coord(text: str) -> BinaryMatrix:
    # a blank line before the last entry fails as a line without its integers
    lines = text.rstrip().splitlines()
    if not lines:
        raise ValueError("empty coordinate file")
    rows, cols, nnz = _line_ints(1, lines[0], 3)
    _declared(rows, cols)
    entries, first = _int_table(lines[1:], 2)
    if first < len(lines) - 1:
        _line_ints(first + 2, lines[first + 1], 2)  # raises
    if len(entries) != nnz:
        raise ValueError(f"header promises {nnz} entries, found {len(entries)}")
    return BinaryMatrix.from_entries(rows, cols, entries - 1)


def write_alist(data) -> str:
    data = matrix_data(data)
    colptr, col_rows = data.csc()
    col_w, row_w = np.diff(colptr), np.diff(data.indptr)
    head = [
        f"{data.cols} {data.rows}",
        f"{col_w.max(initial=0)} {row_w.max(initial=0)}",
        " ".join(map(str, col_w.tolist())),
        " ".join(map(str, row_w.tolist())),
    ]
    col_lines, row_lines = padded_rows(colptr, col_rows + 1, 0), padded_rows(data.indptr, data.indices + 1, 0)
    return "\n".join(head) + "\n" + _lines(col_lines) + _lines(row_lines)


def _adjacency(
    lines: List[str], start: int, weights: List[int], width: int, bound: int, kind: str, other: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR arrays (0-based) of the alist lines from lines[start] on, one
    per weight. Each line must list its weight of nonzero indices,
    increasing inside [1, bound], then its padding; the first line that
    does not raises, naming the first of these rules it breaks."""
    block = lines[start : start + len(weights)]
    table, first = _int_table(block, width)
    w = int_array(weights[:first])[:, None]
    live = table != 0
    inside = np.arange(table.shape[1]) < w
    out = live & ((table < 1) | (table > bound))
    checks = [
        (live.sum(axis=1) != w[:, 0], lambda k: f"{kind} {k + 1} line disagrees with its weight"),
        ((inside & ~live).any(axis=1), lambda k: f"line {start + k + 1}: padding 0 before a nonzero {other} index"),
        (
            ((table[:, 1:] <= table[:, :-1]) & inside[:, 1:]).any(axis=1),
            lambda k: f"line {start + k + 1}: {kind} {k + 1} repeats a {other} index or lists them out of order",
        ),
        (out.any(axis=1), lambda k: f"{other} index {table[k, out[k].argmax()]} outside [1, {bound}]"),
    ]
    failing = np.any([bad for bad, _ in checks], axis=0)
    if failing.any():
        k = int(failing.argmax())
        raise ValueError(next(message(k) for bad, message in checks if bad[k]))
    if first < len(block):
        _line_ints(start + first + 1, block[first], width)  # raises
    indptr = np.zeros(len(weights) + 1, dtype=np.int64)
    np.cumsum(w[:, 0], out=indptr[1:])
    return indptr, table[live].astype(np.int64) - 1


def parse_alist(text: str) -> BinaryMatrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist file too short")
    cols, rows = _line_ints(1, lines[0], 2)
    if cols < 0 or rows < 0:
        raise ValueError(f"negative dimensions {rows}x{cols}")
    max_col_w, max_row_w = _line_ints(2, lines[1], 2)
    col_w = _line_ints(3, lines[2], cols)
    row_w = _line_ints(4, lines[3], rows)
    if (max_col_w, max_row_w) != (max(col_w, default=0), max(row_w, default=0)):
        raise ValueError("line 2: maximum weights disagree with the weight lines")
    last = 4 + cols + rows
    if len(lines) < last:
        raise ValueError("alist file truncated")
    for number, ln in enumerate(lines[last:], last + 1):
        if ln.strip():
            raise ValueError(f"line {number}: content after the last row line")
    colptr, col_rows = _adjacency(lines, 4, col_w, max_col_w, rows, "column", "row")
    data = BinaryMatrix(rows, cols, csr=_adjacency(lines, 4 + cols, row_w, max_row_w, cols, "row", "column"))
    have_ptr, have_rows = data.csc()
    if not (np.array_equal(have_ptr, colptr) and np.array_equal(have_rows, col_rows)):
        raise ValueError("row and column adjacency lists disagree")
    return data


def write_json(data) -> str:
    # json.dumps(sort_keys=True, separators=(",", ": "), indent=1), written out
    data = matrix_data(data)
    entries = np.stack([data.row_ids(), data.indices], axis=1) + 1
    listed = ",\n".join(["  [\n   %d,\n   %d\n  ]"] * data.nnz) % tuple(entries.ravel().tolist())
    listed = f"[\n{listed}\n ]" if data.nnz else "[]"
    return f'{{\n "cols": {data.cols},\n "entries": {listed},\n "nnz": {data.nnz},\n "rows": {data.rows}\n}}\n'


def _json_int(value, what: str) -> int:
    # bool is a subclass of int, so the type is compared exactly
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def parse_json(text: str) -> BinaryMatrix:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    for key in ("rows", "cols", "nnz", "entries"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    extra = sorted(set(doc) - {"rows", "cols", "nnz", "entries"})
    if extra:
        raise ValueError(f"unexpected keys {extra}")
    pairs = doc["entries"]
    if not isinstance(pairs, list):
        raise ValueError("entries must be a list")
    fine = set(map(type, pairs)) <= {list} and (np.fromiter(map(len, pairs), np.int64, count=len(pairs)) == 2).all()
    flat = list(chain.from_iterable(pairs)) if fine else []
    if not fine or not set(map(type, flat)) <= {int}:
        bad = [not (type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int) for p in pairs]
        pair = pairs[bad.index(True)]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {pair!r} is not a [row, col] pair")
        for x in pair:
            _json_int(x, "entry index")
    rows, cols, nnz = (_json_int(doc[key], key) for key in ("rows", "cols", "nnz"))
    _declared(rows, cols)
    data = BinaryMatrix.from_entries(rows, cols, int_array(flat) - 1)
    if data.nnz != nnz:
        raise ValueError("nnz field disagrees with the entry list")
    return data


WRITERS = {"coord": write_coord, "alist": write_alist, "json": write_json}
PARSERS = {"coord": parse_coord, "alist": parse_alist, "json": parse_json}
