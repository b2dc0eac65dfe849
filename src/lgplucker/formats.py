"""Serialization of 0/1 matrices: coordinate lists, alist, JSON.

All three formats describe a plain binary matrix and round-trip exactly:
parsing a serialized text recovers an identical in-memory object, and
re-serializing a parsed text reproduces it byte for byte (the writers are
canonical: fixed ordering, fixed padding, no trailing whitespace). The
parsers accept only that order: a text that lists its ones out of order
raises a ValueError naming the line or the entry, as does a blank line
before the last coordinate entry.

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
from typing import List

from .errors import PARSE_CAP
from .linalg import BinaryMatrix, binary_matrix as matrix_data


def write_coord(data) -> str:
    data = matrix_data(data)
    lines = [f"{data.rows} {data.cols} {data.nnz}"]
    lines.extend(f"{r + 1} {c + 1}" for r, c in data.entries)
    return "\n".join(lines) + "\n"


def _line_ints(number: int, line: str, count: int) -> List[int]:
    """The count integer tokens of a numbered line."""
    tokens = line.split()
    if len(tokens) != count:
        raise ValueError(f"line {number}: expected {count} integers, got {line!r}")
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ValueError(f"line {number}: non-integer token in {line!r}") from None


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
    entries = []
    for number, ln in enumerate(lines[1:], 2):
        r, c = _line_ints(number, ln, 2)
        entries.append((r - 1, c - 1))
    if len(entries) != nnz:
        raise ValueError(f"header promises {nnz} entries, found {len(entries)}")
    return BinaryMatrix.from_entries(rows, cols, entries)


def write_alist(data) -> str:
    data = matrix_data(data)
    col_lists = data.col_lists()
    col_w = [len(x) for x in col_lists]
    row_w = data.row_weights()
    max_col_w = max(col_w, default=0)
    max_row_w = max(row_w, default=0)
    lines = [
        f"{data.cols} {data.rows}",
        f"{max_col_w} {max_row_w}",
        " ".join(str(w) for w in col_w),
        " ".join(str(w) for w in row_w),
    ]
    for idxs in col_lists:
        padded = [i + 1 for i in idxs] + [0] * (max_col_w - len(idxs))
        lines.append(" ".join(str(x) for x in padded))
    for idxs in data.row_supports:
        padded = [i + 1 for i in idxs] + [0] * (max_row_w - len(idxs))
        lines.append(" ".join(str(x) for x in padded))
    return "\n".join(lines) + "\n"


def _adjacency_lines(
    lines: List[str], start: int, weights: List[int], width: int, bound: int, kind: str, other: str
) -> List[List[int]]:
    """The nonzero indices of each alist line from lines[start] on, one per
    weight, made 0-based; each line lists them increasing, then its padding."""
    out = []
    for k, weight in enumerate(weights):
        number = start + k + 1
        values = _line_ints(number, lines[start + k], width)
        live = [x for x in values if x != 0]
        if len(live) != weight:
            raise ValueError(f"{kind} {k + 1} line disagrees with its weight")
        if values[:weight] != live:
            raise ValueError(f"line {number}: padding 0 before a nonzero {other} index")
        if any(a >= b for a, b in zip(live, live[1:])):
            raise ValueError(f"line {number}: {kind} {k + 1} repeats a {other} index or lists them out of order")
        for x in live:
            if not 1 <= x <= bound:
                raise ValueError(f"{other} index {x} outside [1, {bound}]")
        out.append([x - 1 for x in live])
    return out


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
    col_lists = _adjacency_lines(lines, 4, col_w, max_col_w, rows, "column", "row")
    row_lists = _adjacency_lines(lines, 4 + cols, row_w, max_row_w, cols, "row", "column")
    data = BinaryMatrix(rows, cols, row_lists)
    if data.col_lists() != col_lists:
        raise ValueError("row and column adjacency lists disagree")
    return data


def write_json(data) -> str:
    data = matrix_data(data)
    doc = {
        "rows": data.rows,
        "cols": data.cols,
        "nnz": data.nnz,
        "entries": [[r + 1, c + 1] for r, c in data.entries],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


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
    if not isinstance(doc["entries"], list):
        raise ValueError("entries must be a list")
    entries = []
    for pair in doc["entries"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {pair!r} is not a [row, col] pair")
        r, c = (_json_int(x, "entry index") for x in pair)
        entries.append((r - 1, c - 1))
    rows, cols, nnz = (_json_int(doc[key], key) for key in ("rows", "cols", "nnz"))
    _declared(rows, cols)
    data = BinaryMatrix.from_entries(rows, cols, entries)
    if data.nnz != nnz:
        raise ValueError("nnz field disagrees with the entry list")
    return data


WRITERS = {"coord": write_coord, "alist": write_alist, "json": write_json}
PARSERS = {"coord": parse_coord, "alist": parse_alist, "json": parse_json}
