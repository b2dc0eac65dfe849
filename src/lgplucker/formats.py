"""Serialization of 0/1 matrices: coordinate lists, alist, JSON.

All three formats describe a plain binary matrix and round-trip exactly:
parsing a serialized text recovers an identical in-memory object, and
re-serializing a parsed text reproduces it byte for byte (the writers are
canonical: fixed ordering, fixed padding, no trailing whitespace).

Alist layout (the LDPC interchange convention):

    line 1: N M                  (columns, then rows)
    line 2: max_col_w max_row_w
    line 3: N column weights
    line 4: M row weights
    next N lines: 1-based row indices of the ones in each column,
                  zero-padded to max_col_w entries
    next M lines: 1-based column indices of the ones in each row,
                  zero-padded to max_row_w entries

Coordinate layout: a "rows cols nnz" header followed by one 1-based
"row col" pair per line in sorted order.

JSON layout: an object with "rows", "cols", "nnz" and the sorted 1-based
"entries" pair list, serialized with sorted keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class BinaryMatrixData:
    """Shape plus the sorted 0-based positions of the ones."""

    rows: int
    cols: int
    entries: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions {self.rows}x{self.cols}")
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
        if list(self.entries) != sorted(set(self.entries)):
            raise ValueError("entries must be sorted and free of duplicates")

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def row_lists(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.rows)]
        for r, c in self.entries:
            out[r].append(c)
        return out

    def col_lists(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.cols)]
        for r, c in self.entries:
            out[c].append(r)
        return out

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.rows, self.cols), dtype=np.int8)
        for r, c in self.entries:
            a[r, c] = 1
        return a


def matrix_data(obj) -> BinaryMatrixData:
    """Adapt a relation matrix, incidence matrix or array to the carrier."""
    if isinstance(obj, BinaryMatrixData):
        return obj
    if hasattr(obj, "row_supports"):  # PlueckerMatrix
        entries = tuple(
            (i, j) for i, support in enumerate(obj.row_supports) for j in support
        )
        return BinaryMatrixData(*obj.shape, tuple(sorted(entries)))
    if hasattr(obj, "bits"):  # IncidenceMatrix
        arr = np.asarray(obj.bits)
    else:
        arr = np.asarray(obj)
    if arr.ndim != 2 or not np.isin(arr, (0, 1)).all():
        raise ValueError("expected a two-dimensional 0/1 array")
    entries = tuple((int(r), int(c)) for r, c in np.argwhere(arr))
    return BinaryMatrixData(arr.shape[0], arr.shape[1], tuple(sorted(entries)))


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


def parse_coord(text: str) -> BinaryMatrixData:
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty coordinate file")
    rows, cols, nnz = _line_ints(*lines[0], 3)
    if len(lines) - 1 != nnz:
        raise ValueError(f"header promises {nnz} entries, found {len(lines) - 1}")
    entries = []
    for number, ln in lines[1:]:
        r, c = _line_ints(number, ln, 2)
        entries.append((r - 1, c - 1))
    return BinaryMatrixData(rows, cols, tuple(sorted(entries)))


def write_alist(data) -> str:
    data = matrix_data(data)
    col_lists = data.col_lists()
    row_lists = data.row_lists()
    col_w = [len(x) for x in col_lists]
    row_w = [len(x) for x in row_lists]
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
    for idxs in row_lists:
        padded = [i + 1 for i in idxs] + [0] * (max_row_w - len(idxs))
        lines.append(" ".join(str(x) for x in padded))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> BinaryMatrixData:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist file too short")
    cols, rows = (int(x) for x in lines[0].split())
    max_col_w, max_row_w = (int(x) for x in lines[1].split())
    col_w = [int(x) for x in lines[2].split()]
    row_w = [int(x) for x in lines[3].split()]
    if len(col_w) != cols or len(row_w) != rows:
        raise ValueError("weight lines disagree with the declared dimensions")
    if len(lines) < 4 + cols + rows:
        raise ValueError("alist file truncated")
    entries = set()
    for j in range(cols):
        raw = [int(x) for x in lines[4 + j].split()]
        live = [x for x in raw if x != 0]
        if len(raw) != max_col_w or len(live) != col_w[j]:
            raise ValueError(f"column {j + 1} line disagrees with its weight")
        if len(set(live)) != len(live):
            raise ValueError(f"column {j + 1} line repeats a row index")
        for r in live:
            if not 1 <= r <= rows:
                raise ValueError(f"row index {r} outside [1, {rows}]")
            entries.add((r - 1, j))
    check = set()
    for i in range(rows):
        raw = [int(x) for x in lines[4 + cols + i].split()]
        live = [x for x in raw if x != 0]
        if len(raw) != max_row_w or len(live) != row_w[i]:
            raise ValueError(f"row {i + 1} line disagrees with its weight")
        if len(set(live)) != len(live):
            raise ValueError(f"row {i + 1} line repeats a column index")
        for c in live:
            if not 1 <= c <= cols:
                raise ValueError(f"column index {c} outside [1, {cols}]")
            check.add((i, c - 1))
    if check != entries:
        raise ValueError("row and column adjacency lists disagree")
    return BinaryMatrixData(rows, cols, tuple(sorted(entries)))


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


def parse_json(text: str) -> BinaryMatrixData:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    for key in ("rows", "cols", "nnz", "entries"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(doc["entries"], list):
        raise ValueError("entries must be a list")
    entries = []
    for pair in doc["entries"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {pair!r} is not a [row, col] pair")
        r, c = (_json_int(x, "entry index") for x in pair)
        entries.append((r - 1, c - 1))
    rows, cols, nnz = (_json_int(doc[key], key) for key in ("rows", "cols", "nnz"))
    data = BinaryMatrixData(rows, cols, tuple(sorted(entries)))
    if data.nnz != nnz:
        raise ValueError("nnz field disagrees with the entry list")
    return data


WRITERS = {"coord": write_coord, "alist": write_alist, "json": write_json}
PARSERS = {"coord": parse_coord, "alist": parse_alist, "json": parse_json}
