"""The contraction relations and their sparse 0/1 system matrix.

For every index tuple gamma of length n - 2 there is one linear relation:
the sum of the grade-n coordinates at gamma union each complementary pair
disjoint from gamma. Its coefficients are all 1 against the pair-adjacent
coordinate system (see :mod:`.symplectic`), so the full system is a 0/1
matrix with rows indexed by the (n-2)-tuples and columns by the n-tuples.
Applying it to a point is one gather over its row supports, independent
of ``symplectic.contract``, so the two can check each other.
``vanishing_space`` inverts the viewpoint: given points it returns a basis
of every functional vanishing on their span, the numerical witness that
the relation rows are all there is.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence

import numpy as np

from . import linalg
from .combinatorics import IndexTuple, binomials, validate_index_tuple
from .errors import BUILD_CAP, ResourceCapError
from .fields import Field, Scalar
from .symplectic import ExteriorVector, arranged_coordinates, coordinates


@dataclass
class LinearFunctional:
    """Sparse linear functional on grade-n tensors.

    Coefficients are taken against the pair-adjacent coordinate system;
    evaluation folds in the sign twist so callers can feed ordinary
    exterior vectors.
    """

    n: int
    field: Field
    coeffs: Dict[IndexTuple, Scalar] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, val in self.coeffs.items():
            key = tuple(key)
            validate_index_tuple(key, 2 * self.n, length=self.n)
            val = self.field.coerce(val)
            if val:
                clean[key] = val
        self.coeffs = clean

    def evaluate(self, w: ExteriorVector) -> Scalar:
        if w.n != self.n or w.grade != self.n or w.field != self.field:
            raise ValueError("functional and vector live in different spaces")
        x = arranged_coordinates(w)
        position = coordinates(self.n, self.n).position
        total = sum((c * x[position[key]] for key, c in self.coeffs.items()), self.field.zero)
        return self.field.coerce(total)

    __call__ = evaluate


class PlueckerMatrix(linalg.BinaryMatrix):
    """Sparse 0/1 matrix of the contraction relation system.

    Rows are indexed by the (n-2)-tuples and columns by the n-tuples over
    [1, 2n], both in the canonical order of :func:`coordinates`; they are
    the row and column labels. The entry at (gamma, beta) is 1 exactly
    when beta contains gamma and the two extra indices form a
    complementary pair.
    """

    __slots__ = ("n", "_padded")

    def __init__(self, n: int, row_tuples: List[IndexTuple], col_tuples: List[IndexTuple], row_supports=None, *, csr=None):
        super().__init__(len(row_tuples), len(col_tuples), row_supports, row_tuples, col_tuples, csr=csr)
        self.n = n
        self._padded = None

    # the labels are the index tuples; these names read the same slots
    row_tuples = linalg.BinaryMatrix.row_labels
    col_tuples = linalg.BinaryMatrix.col_labels

    def apply(self, w: ExteriorVector) -> List[Scalar]:
        """The relation values on w; equals the coordinates of contract(w).

        Both sides of the twist are folded in: the column coordinates of w
        and the row coordinates of the output are read in the
        pair-adjacent system, which is exactly what keeps this matrix 0/1.
        The row sums are one gather over the rows' columns, padded to the
        widest row with a column past the last that reads 0, built on the
        first call. Over QQ they run on the integer numerators of w over
        their common denominator.
        """
        if w.n != self.n or w.grade != self.n:
            raise ValueError(f"expected a grade-{self.n} vector over 2n = {2 * self.n}")
        if self._padded is None:
            self._padded = linalg.padded_rows(self.indptr, self.indices, self.cols)
        p = w.field.char
        x, d = w.numerators()
        x = np.append(x * coordinates(self.n, self.n).signs, 0)
        sums = x[self._padded].sum(axis=1) * coordinates(self.n - 2, self.n).signs
        return (sums % p).tolist() if p else [Fraction(v, d) for v in sums.tolist()]


def build_plucker_matrix(n: int) -> PlueckerMatrix:
    """Assemble the full relation matrix for half-dimension n (2 <= n <= 7)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > BUILD_CAP:
        raise ResourceCapError(f"n = {n} exceeds the build cap {BUILD_CAP}")
    rows = coordinates(n - 2, n)
    g = rows.array
    c = binomials(2 * n + 1)
    ranks = np.empty((len(g), n), dtype=np.int64)
    disjoint = np.empty((len(g), n), dtype=bool)
    for i in range(1, n + 1):
        ibar = 2 * n + 1 - i
        # the column of gamma + {i, ibar} is its lexicographic rank (see
        # combinatorics.binomials): an entry of gamma at position q moves to
        # q + [g > i] + [g > ibar], i to #{g < i} and ibar to #{g < ibar} + 1
        ranks[:, i - 1] = comb(2 * n, n) - 1 - (
            c[2 * n - g, n - np.arange(n - 2) - (g > i) - (g > ibar)].sum(axis=1)
            + c[2 * n - i, n - (g < i).sum(axis=1)]
            + c[i - 1, n - 1 - (g < ibar).sum(axis=1)]
        )
        disjoint[:, i - 1] = ((g != i) & (g != ibar)).all(axis=1)
    # gamma + {i, ibar} grows in lexicographic order with i, so each row
    # lists its columns in increasing order
    indptr = np.zeros(len(g) + 1, dtype=np.int64)
    np.cumsum(disjoint.sum(axis=1), out=indptr[1:])
    return PlueckerMatrix(n, rows.tuples, coordinates(n, n).tuples, csr=(indptr, ranks[disjoint]))


def vanishing_space(points: Sequence[ExteriorVector], field: Field) -> List[LinearFunctional]:
    """Basis of all functionals vanishing on the span of the given points.

    Rows of the point matrix are pair-adjacent coordinate vectors, so the
    nullspace vectors are functional coefficient vectors in the same
    system, directly comparable with the 0/1 relation rows. The points'
    ``values`` are stacked and twisted in one step; over GF(p) the int64
    matrix goes to ``linalg.nullspace_mod``, over QQ the Fraction rows go
    to ``linalg.nullspace``.
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n
    for w in points:
        if w.n != n or w.grade != n or w.field != field:
            raise ValueError("points must share one grade-n space and field")
    table = coordinates(n, n)
    a = np.stack([w.values for w in points])  # the one copy: twisted, and over GF(p) reduced, in place
    a *= table.signs
    p = field.char
    if p:
        a %= p
        basis = linalg.nullspace_mod(a, p).tolist()
    else:
        basis = linalg.nullspace(linalg.ExactMatrix.from_rows(a, field))
    out = []
    for vec in basis:
        coeffs = {table.tuples[j]: v for j, v in enumerate(vec) if v}
        out.append(LinearFunctional(n, field, coeffs))
    return out


def functional_matrix(functionals: Sequence[LinearFunctional], n: int, field: Field) -> linalg.ExactMatrix:
    """Stack functional coefficient vectors as rows of an exact matrix."""
    cols = coordinates(n, n).position
    rows = []
    for h in functionals:
        if h.n != n or h.field != field:
            raise ValueError("functionals must share the given space and field")
        rows.append({cols[t]: v for t, v in h.coeffs.items()})
    return linalg.ExactMatrix(len(rows), comb(2 * n, n), field, rows)
