"""Exact rank, nullspace and row-space comparison over QQ and GF(p).

Two representations, one exact elimination kernel each, no tolerances:

* rows of Python ints go through ``int_echelon``, sparse Gauss-Jordan
  elimination mod p or fraction-free over the integers. ``rank``,
  ``independent_rows`` and ``nullspace`` convert an ``ExactMatrix`` once
  for it (each row times the lcm of its denominators) over every field;
* int64 residue arrays, as the vanishing space of many points over GF(p)
  makes, go through dense numpy row reduction: the nullspace of a tall
  array folds its rows into the reduced row space a block at a time,
  and every product mod p goes through the overflow-safe ``_matmul_mod``.

The rank of the relation matrix itself (``rank_report``,
``embedding_rank``) comes from its verified block decomposition, so
elimination there only ever sees the atlas members (15 x 20 at most for
n <= 7); the full matrix is eliminated only where its rows are needed,
or as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import lt
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fields import Field, GF, QQ, Scalar, integer_numerators

# rows of a tall matrix folded at once into its reduced row space
_FOLD_ROWS = 256


class ExactMatrix:
    """Matrix with exact entries over one field, rows stored sparsely."""

    __slots__ = ("nrows", "ncols", "field", "rows")

    def __init__(self, nrows: int, ncols: int, field: Field, rows: List[Dict[int, Scalar]]):
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        for r in rows:
            for c in r:
                if not 0 <= c < ncols:
                    raise ValueError(f"column index {c} outside [0, {ncols})")
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.rows = rows

    @classmethod
    def from_rows(cls, data: Iterable[Sequence], field: Field) -> "ExactMatrix":
        rows, width = [], None
        for raw in data:
            raw = [field.coerce(v) for v in raw]
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise ValueError("ragged rows")
            rows.append({c: v for c, v in enumerate(raw) if v})
        return cls(len(rows), width or 0, field, rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, field: Field) -> "ExactMatrix":
        return cls(nrows, ncols, field, [{} for _ in range(nrows)])

    def transpose(self) -> "ExactMatrix":
        rows: List[Dict[int, Scalar]] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for c, v in r.items():
                rows[c][i] = v
        return ExactMatrix(self.ncols, self.nrows, self.field, rows)

    def stacked(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.ncols != self.ncols or other.field != self.field:
            raise ValueError("stack requires matching column count and field")
        rows = [dict(r) for r in self.rows + other.rows]
        return ExactMatrix(self.nrows + other.nrows, self.ncols, self.field, rows)

    def mat_vec(self, x: Sequence[Scalar]) -> List[Scalar]:
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for r in self.rows:
            s = f.zero
            for c, v in r.items():
                s = f.add(s, f.mul(v, x[c]))
            out.append(s)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"


class BinaryMatrix:
    """0/1 matrix: its shape, the strictly increasing columns of the ones
    in each row (``row_supports``), and optional row and column labels.

    The relation matrix B(n), its blocks, the atlas members L(m) and the
    parsed file formats are all of this kind. The supports are checked
    once, here; the dense view ``bits`` is built on each access.
    """

    __slots__ = ("rows", "cols", "row_supports", "row_labels", "col_labels")

    def __init__(self, rows: int, cols: int, row_supports: Iterable[Sequence[int]], row_labels=None, col_labels=None):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions {rows}x{cols}")
        row_supports = tuple(map(tuple, row_supports))
        if len(row_supports) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_supports)}")
        for i, s in enumerate(row_supports):
            if s and not (0 <= s[0] and s[-1] < cols and all(map(lt, s, s[1:]))):
                raise ValueError(f"row {i}: columns {s} do not strictly increase inside [0, {cols})")
        self.rows = rows
        self.cols = cols
        self.row_supports = row_supports
        self.row_labels = None if row_labels is None else tuple(row_labels)
        self.col_labels = None if col_labels is None else tuple(col_labels)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[Tuple[int, int]]) -> "BinaryMatrix":
        """The unlabelled matrix with ones at the 0-based (row, column)
        entries, which must come in strictly increasing row-major order."""
        supports: Dict[int, List[int]] = {}
        last = (-1, -1)
        for k, (r, c) in enumerate(entries, 1):
            if (r, c) <= last:
                raise ValueError(f"entry {k} does not follow entry {k - 1} in row-major order")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows}x{cols}")
            supports.setdefault(r, []).append(c)
            last = (r, c)
        return cls(rows, cols, [supports.get(i, ()) for i in range(rows)])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.row_supports))

    @property
    def entries(self) -> Tuple[Tuple[int, int], ...]:
        """The 0-based (row, column) positions of the ones, in row-major order."""
        return tuple((i, j) for i, s in enumerate(self.row_supports) for j in s)

    @property
    def bits(self) -> np.ndarray:
        a = np.zeros(self.shape, dtype=np.int8)
        for i, s in enumerate(self.row_supports):
            a[i, list(s)] = 1
        return a

    def entry(self, i: int, j: int) -> int:
        return int(j in self.row_supports[i])

    def row_weight(self, i: int) -> int:
        return len(self.row_supports[i])

    def row_weights(self) -> List[int]:
        return [len(s) for s in self.row_supports]

    def col_lists(self) -> List[List[int]]:
        """The increasing rows of the ones in each column."""
        out: List[List[int]] = [[] for _ in range(self.cols)]
        for i, s in enumerate(self.row_supports):
            for j in s:
                out[j].append(i)
        return out

    def column_weights(self) -> List[int]:
        return [len(x) for x in self.col_lists()]

    def to_exact(self, field: Field) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, field, [{j: field.one for j in s} for s in self.row_supports])

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.row_supports, self.row_labels, self.col_labels)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols}, nnz={self.nnz})"


def binary_matrix(obj) -> BinaryMatrix:
    """obj as an unlabelled BinaryMatrix: a BinaryMatrix gives a copy
    without its labels, and a two-dimensional 0/1 array is converted."""
    if isinstance(obj, BinaryMatrix):
        return BinaryMatrix(obj.rows, obj.cols, obj.row_supports)
    arr = np.asarray(obj)
    if arr.ndim != 2 or not np.isin(arr, (0, 1)).all():
        raise ValueError("expected a two-dimensional 0/1 array")
    return BinaryMatrix(*arr.shape, [np.flatnonzero(row).tolist() for row in arr])


def _rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(p), computed in place on a, whose
    entries must be residues in [0, p); returns (rref, pivot columns)."""
    nrows, ncols = a.shape
    pivot_cols: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        # a few thousand rows at a time, so no temporary is as large as a
        for s in range(0, len(others), 1 << 12):
            rows = others[s : s + (1 << 12)]
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols


def int_echelon(rows: Sequence[Sequence[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Gauss-Jordan elimination of Python-int rows, mod p, or for p = 0
    fraction-free over the integers: returns the nonzero reduced rows and
    their pivot columns, in column order. Each reduced row is zero left of
    its pivot and in the other rows' pivot columns; mod p its pivot is 1,
    over the integers its entries are coprime and its pivot positive: the
    one reduced form of the row space either way.

    Rows given as {column: int} dicts come back as dicts; all are held as
    dicts. Each pivot is the shortest row not yet pivoted that reaches its
    column, taken out of the other such rows; the rows above are cleared
    once that forward pass is done.
    """

    def take_out(row: Dict[int, int], prow: Dict[int, int], c: int) -> Dict[int, int]:
        # row minus the multiple of prow that clears column c, in place;
        # over the integers row is first scaled so that the multiple is
        # whole, and then divided by the gcd of its entries
        h = gcd(row[c], prow[c])
        f, g = row[c] // h, prow[c] // h  # g is 1 mod p, as the pivots are
        if g != 1:
            for k in row:
                row[k] *= g
        for k, v in prow.items():
            x = row.pop(k, 0) - f * v
            if p:
                x %= p
            if x:
                row[k] = x
        if g != 1 and row:
            h = gcd(*row.values())
            for k in row:
                row[k] //= h
        return row

    dense = bool(rows) and not isinstance(rows[0], dict)
    waiting: Dict[int, List[Dict[int, int]]] = {}  # rows not yet pivoted, by leading column
    for r in rows:
        items = enumerate(r) if dense else r.items()
        row = {c: y for c, x in items if (y := x % p)} if p else {c: x for c, x in items if x}
        if row:
            waiting.setdefault(min(row), []).append(row)
    reduced: List[Dict[int, int]] = []
    pivots: List[int] = []
    while waiting:
        c = min(waiting)
        prow, *rest = sorted(waiting.pop(c), key=len)
        if p and prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = {k: v * inv % p for k, v in prow.items()}
        for row in rest:
            if take_out(row, prow, c):
                waiting.setdefault(min(row), []).append(row)
        reduced.append(prow)
        pivots.append(c)
    for k in range(len(reduced) - 1, 0, -1):
        for row in reduced[:k]:
            if pivots[k] in row:
                take_out(row, reduced[k], pivots[k])
    if not p:
        for row, c in zip(reduced, pivots):
            h = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
            for k in row:
                row[k] //= h
    if dense:
        return [[row.get(c, 0) for c in range(len(rows[0]))] for row in reduced], pivots
    return reduced, pivots


def _int_rows(m: ExactMatrix) -> List[Dict[int, int]]:
    """The rows of m as {column: int} dicts for ``int_echelon``: each row
    times the lcm of its denominators (residues over GF(p) stay as they are)."""
    return [dict(zip(r, integer_numerators(r.values())[0])) for r in m.rows]


def rank(m: ExactMatrix) -> int:
    """Rank of m over its field (deterministic exact elimination)."""
    return len(int_echelon(_int_rows(m), m.field.char)[1])


def independent_rows(m: ExactMatrix) -> List[int]:
    """Indices of the rows of m outside the span of the rows before them.

    They are the pivot columns of the reduced row echelon form of the
    transpose, and the rows they pick form a basis of the row space.
    """
    return int_echelon(_int_rows(m.transpose()), m.field.char)[1]


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for residue matrices, exact in int64.

    Entries are residues below p < 2^31. When (p - 1)^2 times the inner
    length stays below 2^63, one plain product is exact. Otherwise y is
    split into 16-bit halves, so a product is below 2^47 and a dot
    product over a block of 2^15 inner indices stays below 2^62; each
    block is added into the result in place and reduced, so besides the
    result one temporary of its shape is held.
    """
    if (p - 1) ** 2 * x.shape[1] < 1 << 63:
        out = x @ y
        out %= p
        return out
    high, low = np.divmod(y, 1 << 16)
    out = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    part = np.empty_like(out)
    for s in range(0, x.shape[1], 1 << 15):
        block = slice(s, s + (1 << 15))
        np.matmul(x[:, block], high[block], out=part)
        part %= p
        part <<= 16
        out += part
        np.matmul(x[:, block], low[block], out=part)
        out += part
        out %= p
    return out


def _row_space_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The reduced row echelon form of the row space of a over GF(p): its
    nonzero rows and their pivot columns; a is left as it is.

    The rows of a are folded in blocks of ``_FOLD_ROWS`` into the reduced
    basis so far. One product takes each block's entries in the basis
    pivot columns out; only the rows left nonzero are eliminated, and
    their new pivot columns are then taken out of the basis. The result
    is the one reduced form of the row space, whatever the blocks.
    """
    basis = np.zeros((0, a.shape[1]), dtype=np.int64)
    pivots: List[int] = []
    for s in range(0, a.shape[0], _FOLD_ROWS):
        block = a[s : s + _FOLD_ROWS].copy()
        if pivots:
            # the basis is the identity in its pivot columns
            rest = np.delete(np.arange(a.shape[1]), pivots)
            block[:, rest] = (block[:, rest] - _matmul_mod(block[:, pivots], basis[:, rest], p)) % p
            block[:, pivots] = 0
        block = block[block.any(axis=1)]
        if not len(block):
            continue
        block, new = _rref_mod(block, p)
        block = block[: len(new)]
        if pivots:
            basis -= _matmul_mod(basis[:, new], block, p)
            basis %= p
        order = np.argsort(pivots + new)
        basis = np.concatenate([basis, block])[order]
        pivots = sorted(pivots + new)
    return basis, pivots


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a x = 0 mod p} as the rows of an int64 array.

    The entries of a must be residues in [0, p) (a ValueError otherwise);
    a is left as it is. One basis vector per non-pivot column of the
    reduced row echelon form (see :func:`_row_space_mod`), in column
    order, each checked against every row of a.
    """
    if a.size and not 0 <= a.min() <= a.max() < p:
        raise ValueError(f"entries must be residues in [0, {p})")
    rref, pivot_cols = _row_space_mod(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivot_cols] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivot_cols] = (-rref[:, free].T) % p
    if _matmul_mod(a, basis.T, p).any():
        raise ArithmeticError("nullspace vector failed verification")
    return basis


def nullspace(m: ExactMatrix) -> List[List[Scalar]]:
    """Basis of the right nullspace {x : m x = 0}: one vector per
    non-pivot column of the reduced row echelon form, in column order,
    read off the reduced rows and re-verified."""
    field = m.field
    reduced, pivots = int_echelon(_int_rows(m), field.char)
    basis: List[List[Scalar]] = []
    for f in sorted(set(range(m.ncols)).difference(pivots)):
        x = [field.zero] * m.ncols
        x[f] = field.one
        for row, c in zip(reduced, pivots):
            if f in row:
                x[c] = field.coerce(Fraction(-row[f], row[c]))
        if any(m.mat_vec(x)):
            raise ArithmeticError("nullspace vector failed verification")
        basis.append(x)
    return basis


def row_space_equal(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Whether a and b span the same row space over their common field."""
    if a.ncols != b.ncols or a.field != b.field:
        raise ValueError("row spaces live in different ambient spaces")
    r = rank(a)
    return rank(b) == r and rank(a.stacked(b)) == r


@dataclass(frozen=True)
class RankReport:
    """Rank of the relation matrix over one field, with the surjectivity verdict."""

    n: int
    characteristic: int
    rank: int
    expected: int
    surjective: bool
    embedding_rank: int


class RankCriterionViolation(Exception):
    """The characteristic criterion failed; carries the offending report."""

    def __init__(self, report: RankReport):
        self.report = report
        super().__init__(f"characteristic criterion violated: {report}")


def _relation_rank(n: int, field: Field) -> int:
    """Rank of the relation matrix B(n) over field, from its block structure.

    B(n) is built and decomposed afresh, every block checked against its
    atlas member, and the rank summed block by block (see
    ``BlockDecomposition.rank``): only the atlas members are eliminated,
    never B itself.
    """
    from .blocks import decompose
    from .frlc import build_plucker_matrix

    return decompose(build_plucker_matrix(n)).rank(field)


def embedding_rank(n: int, field: Field) -> int:
    """Dimension count C(2n, n) minus the rank of the relation matrix."""
    return comb(2 * n, n) - _relation_rank(n, field)


def rank_report(n: int, characteristic: int) -> RankReport:
    """Rank of the relation matrix over QQ (characteristic 0) or GF(p).

    Full rank is expected exactly when the characteristic is 0 or at least
    floor((n + 2) / 2); a violation raises RankCriterionViolation.
    """
    r = _relation_rank(n, GF(characteristic) if characteristic else QQ)
    expected = comb(2 * n, n - 2)
    report = RankReport(
        n=n,
        characteristic=characteristic,
        rank=r,
        expected=expected,
        surjective=r == expected,
        embedding_rank=comb(2 * n, n) - r,
    )
    should_be_full = characteristic == 0 or characteristic >= (n + 2) // 2
    if report.surjective != should_be_full:
        raise RankCriterionViolation(report)
    return report
