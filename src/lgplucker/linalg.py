"""Exact rank, nullspace and row-space comparison over QQ and GF(p).

Two elimination back ends, both exact with no tolerances anywhere:

* prime fields go through dense numpy row reduction on int64 residues
  (products of two reduced residues stay inside int64 for the allowed
  moduli);
* the rationals go through sparse forward elimination on dict-backed rows
  with Fraction arithmetic and shortest-row pivoting.

The rank of the relation matrix itself (``rank_report``,
``embedding_rank``) comes from its verified block decomposition, so
elimination there only ever sees the atlas members (15 x 20 at most for
n <= 7); the full matrix is eliminated only where its rows are needed,
or as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fields import Field, GF, QQ, Scalar


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
        rows = []
        width = None
        for raw in data:
            raw = list(raw)
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise ValueError("ragged rows")
            row = {}
            for c, v in enumerate(raw):
                v = field.coerce(v)
                if v:
                    row[c] = v
            rows.append(row)
        return cls(len(rows), width or 0, field, rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, field: Field) -> "ExactMatrix":
        return cls(nrows, ncols, field, [{} for _ in range(nrows)])

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i].get(j, self.field.zero)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def to_dense(self) -> List[List[Scalar]]:
        zero = self.field.zero
        return [[r.get(c, zero) for c in range(self.ncols)] for r in self.rows]

    def to_int64(self) -> np.ndarray:
        """Dense int64 image; entries must already be Python ints."""
        a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for i, r in enumerate(self.rows):
            for c, v in r.items():
                a[i, c] = v
        return a

    def transpose(self) -> "ExactMatrix":
        rows: List[Dict[int, Scalar]] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for c, v in r.items():
                rows[c][i] = v
        return ExactMatrix(self.ncols, self.nrows, self.field, rows)

    def stacked(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.ncols != self.ncols or other.field != self.field:
            raise ValueError("stack requires matching column count and field")
        return ExactMatrix(
            self.nrows + other.nrows,
            self.ncols,
            self.field,
            [dict(r) for r in self.rows] + [dict(r) for r in other.rows],
        )

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
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r}, nnz={self.nnz})"


def _rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns)."""
    a = a.copy() % p
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
        others = [i for i in np.nonzero(a[:, c])[0] if i != r]
        if others:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols


def _rref_sparse(rows: List[Dict[int, Scalar]], ncols: int, field: Field) -> List[Tuple[int, int]]:
    """In-place sparse forward elimination; returns (pivot column, row index) pairs.

    Pivot rows are normalized to leading 1 and eliminated from the rows not
    yet pivoted only, so afterwards each pivot row is zero left of its pivot
    column and the pivot rows form a row echelon form, in pivot order.
    """
    pivots: List[Tuple[int, int]] = []
    pivoted = [False] * len(rows)
    for col in range(ncols):
        best = -1
        for idx, row in enumerate(rows):
            if pivoted[idx] or col not in row:
                continue
            if best < 0 or len(row) < len(rows[best]):
                best = idx
        if best < 0:
            continue
        prow = rows[best]
        inv = field.inv(prow[col])
        if inv != field.one:
            prow = {c: field.mul(v, inv) for c, v in prow.items()}
            rows[best] = prow
        pivoted[best] = True
        for idx, row in enumerate(rows):
            if pivoted[idx] or col not in row:
                continue
            f = row[col]
            new = dict(row)
            for c, v in prow.items():
                nv = field.sub(new.get(c, field.zero), field.mul(f, v))
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            rows[idx] = new
        pivots.append((col, best))
    return pivots


def rank(m: ExactMatrix) -> int:
    """Rank of m over its field (deterministic exact elimination)."""
    if m.field.char:
        _, pivot_cols = _rref_mod(m.to_int64(), m.field.char)
        return len(pivot_cols)
    work = [dict(r) for r in m.rows]
    return len(_rref_sparse(work, m.ncols, m.field))


def independent_rows(m: ExactMatrix) -> List[int]:
    """Indices of the rows of m outside the span of the rows before them.

    They are the pivot columns of the reduced row echelon form of the
    transpose, and the rows they pick form a basis of the row space.
    """
    t = m.transpose()
    if m.field.char:
        return _rref_mod(t.to_int64(), m.field.char)[1]
    return [col for col, _ in _rref_sparse(t.rows, t.ncols, m.field)]


def _annihilates_mod(a: np.ndarray, basis: np.ndarray, p: int) -> bool:
    """Whether a @ x = 0 mod p for every row x of basis, exactly in int64.

    Entries are residues below p < 2^31. Each x is split into 16-bit
    halves, so a product is below 2^47 and a dot product over a block of
    2^15 columns stays below 2^62; the blocks are summed mod p.
    """
    high, low = np.divmod(basis, 1 << 16)
    acc = np.zeros((a.shape[0], basis.shape[0]), dtype=np.int64)
    for s in range(0, a.shape[1], 1 << 15):
        block = slice(s, s + (1 << 15))
        acc = (acc + (a[:, block] @ high[:, block].T % p << 16) + a[:, block] @ low[:, block].T) % p
    return not acc.any()


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a x = 0 mod p} as the rows of an int64 array.

    One basis vector per non-pivot column of the reduced row echelon form,
    in column order, each checked against every row of a.
    """
    a = a % p
    rref, pivot_cols = _rref_mod(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivot_cols] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivot_cols] = (-rref[: len(pivot_cols), free].T) % p
    if not _annihilates_mod(a, basis, p):
        raise ArithmeticError("nullspace vector failed verification")
    return basis


def nullspace(m: ExactMatrix) -> List[List[Scalar]]:
    """Basis of the right nullspace {x : m x = 0}, each vector re-verified."""
    field = m.field
    if field.char:
        return nullspace_mod(m.to_int64(), field.char).tolist()
    work = [dict(r) for r in m.rows]
    pivots = _rref_sparse(work, m.ncols, field)
    pivot_cols = {col for col, _ in pivots}
    free = [c for c in range(m.ncols) if c not in pivot_cols]
    basis: List[List[Scalar]] = []
    for fcol in free:
        x = [field.zero] * m.ncols
        x[fcol] = field.one
        # back substitution: a pivot row only reaches right of its pivot
        for col, idx in reversed(pivots):
            s = field.zero
            for c, v in work[idx].items():
                if c != col:
                    s = field.add(s, field.mul(v, x[c]))
            x[col] = field.neg(s)
        basis.append(x)
    for x in basis:
        if any(v for v in m.mat_vec(x)):
            raise ArithmeticError("nullspace vector failed verification")
    return basis


def row_space_equal(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Whether a and b span the same row space over their common field."""
    if a.ncols != b.ncols or a.field != b.field:
        raise ValueError("row spaces live in different ambient spaces")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank(a.stacked(b)) == ra


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


def field_of_characteristic(characteristic: int) -> Field:
    return QQ if characteristic == 0 else GF(characteristic)


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
    r = _relation_rank(n, field_of_characteristic(characteristic))
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
