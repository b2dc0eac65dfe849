"""The atlas members L(m) and the block structure of the relation matrix.

For even m, L(m) is the inclusion matrix of the (m-2)/2-subsets of [1, m]
(rows) against its m/2-subsets (columns), both in lexicographic order:
row alpha has a one at alpha + {x} for each x outside alpha (Wilson,
Europ. J. Combin. 11, 1990). It is regular and sparse: r = (m+2)/2 ones
per row, r - 1 per column, and any two rows share at most one column.

The relation matrix is a direct sum of these: group its rows and columns
by the free part of their index tuple; each class is L(m) for
m = n - (free size), its pairs renumbered onto 1..m in order. In the
canonical order of the labels it is L(m) as it stands, rows and columns
alike. Columns whose index tuple contains no complementary pair are
identically zero and are listed separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import comb
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import linalg
from .combinatorics import IndexTuple, index_tuples, join_ranks, split_free_pairs, tuple_array
from .fields import Field
from .frlc import PlueckerMatrix
from .symplectic import coordinates

PairTuple = Tuple[int, ...]


def r_value(m: int) -> int:
    """The regularity index floor((m + 2) / 2): the row weight of L(m)."""
    return (m + 2) // 2


class DecompositionError(Exception):
    """A structural claim about the block decomposition failed."""


class BlockEquivalenceError(DecompositionError):
    """A block of the relation matrix differs from its atlas member L(m)."""


class IncidenceMatrix(linalg.BinaryMatrix):
    """A 0/1 matrix labelled by pair-index tuples: the atlas member L(m),
    or a block of the relation matrix to be checked against it."""

    __slots__ = ("m",)

    def __init__(self, m: int, matrix, row_labels: Tuple[PairTuple, ...], col_labels: Tuple[PairTuple, ...]):
        """matrix is a BinaryMatrix, whose supports were checked when it was
        built and are taken as they are, or a two-dimensional 0/1 array,
        checked here."""
        if not isinstance(matrix, linalg.BinaryMatrix):
            matrix = linalg.binary_matrix(matrix)
        self._set(matrix.rows, matrix.cols, matrix.indptr, matrix.indices)
        self.row_labels, self.col_labels = tuple(row_labels), tuple(col_labels)
        self.m = m

    @property
    def label(self) -> str:
        return f"L{r_value(self.m)}"

    def _key(self) -> tuple:
        return super()._key() + (self.m,)


@lru_cache(maxsize=None)
def incidence_matrix(m: int) -> IncidenceMatrix:
    """The atlas member L(m) for even m >= 2, labelled by its subsets.

    Built once per m and shared by every caller: its CSR arrays are
    read-only and its labels tuples."""
    if m < 2 or m % 2:
        raise ValueError(f"need an even m >= 2, got {m}")
    k = m // 2
    rows, cols = index_tuples(k - 1, m), coordinates(k, k)  # the k-tuples over [1, m]
    short = (1 << (m - tuple_array(rows, k - 1))).sum(axis=1)
    # alpha + {x} grows in lexicographic order with x, so each row's columns increase
    ranks = join_ranks(short, cols.masks, 1 << (m - np.arange(1, m + 1)))
    csr = (np.arange(len(ranks) + 1) * (k + 1), ranks[ranks >= 0])
    return IncidenceMatrix(m, linalg.BinaryMatrix(len(ranks), len(cols.tuples), csr=csr), rows, cols.tuples)


def _atlas_rank(m: int, p: int) -> int:
    """The rank of L(m) over QQ (p = 0) or GF(p), k = m/2: over ZZ, L(m)
    has a diagonal form (Wilson) with each entry k - i, i = 0..k-1,
    C(m, i) - C(m, i - 1) times, and an entry counts unless p divides it."""
    k = m // 2
    return sum(comb(m, i) - (comb(m, i - 1) if i else 0) for i in range(k) if p == 0 or (k - i) % p)


def atlas(n: int) -> List[IncidenceMatrix]:
    """The family of block references for half-dimension n.

    One matrix per even m from the largest even integer <= n down to 2;
    consecutive half-dimensions n, n+1 with n even share it verbatim.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    start = n if n % 2 == 0 else n - 1
    return [incidence_matrix(m) for m in range(start, 1, -2)]


@dataclass(frozen=True)
class RegularityReport:
    """Row/column weight, overlap and density checks for one atlas member."""

    m: int
    r: int
    shape: Tuple[int, int]
    row_weight: int
    column_weight: int
    max_overlap: int
    density: Fraction
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_regularity(mat: IncidenceMatrix) -> RegularityReport:
    """Verify the regularity and sparsity pattern of an incidence matrix."""
    r = r_value(mat.m)
    row_w, col_w = np.diff(mat.indptr), np.bincount(mat.indices, minlength=mat.cols)
    failures = [f"row {mat.row_labels[i]} has weight {row_w[i]}, expected {r}" for i in np.flatnonzero(row_w != r)]
    failures += [
        f"column {mat.col_labels[j]} has weight {col_w[j]}, expected {r - 1}" for j in np.flatnonzero(col_w != r - 1)
    ]
    # the rows two columns share: each pair (i < j) of rows in a column
    # list, coded i * rows + j, counted over the columns
    colptr, col_rows = mat.csc()
    col = np.repeat(np.arange(mat.cols), col_w)
    pairs = [np.zeros(0, dtype=np.int64)] + [
        (col_rows[:-d] * mat.rows + col_rows[d:])[col[:-d] == col[d:]] for d in range(1, int(col_w.max(initial=0)))
    ]
    codes, shared = np.unique(np.concatenate(pairs), return_counts=True)
    overlap = int(shared.max(initial=0))
    if overlap > 1:
        # the first maximal pair in row-major order has the least code
        i, j = divmod(int(codes[shared.argmax()]), mat.rows)
        failures.append(f"rows {mat.row_labels[i]} and {mat.row_labels[j]} share {overlap} columns")
    density = Fraction(r, comb(mat.m, mat.m // 2))
    return RegularityReport(
        m=mat.m,
        r=r,
        shape=mat.shape,
        row_weight=r,
        column_weight=r - 1,
        max_overlap=overlap,
        density=density,
        failures=tuple(failures),
    )


@dataclass
class Block:
    """One decomposition block: the atlas member L(m) as it stands, its
    rows and columns those of B's class with this free part, in B's
    order, labelled by their pair lows."""

    free: IndexTuple
    m: int
    row_tuples: Tuple[IndexTuple, ...]
    col_tuples: Tuple[IndexTuple, ...]
    matrix: IncidenceMatrix


@dataclass
class BlockDecomposition:
    """Partition of the relation matrix into atlas blocks plus zero columns.

    ``counts`` maps each m that occurs to the number of blocks checked
    against its atlas member L(m). ``blocks`` lists them in first-seen
    order of their free parts; every block is L(m) as it stands, and the
    list is sliced, when first read, from the class order ``decompose``
    computed; nothing is checked again. The census and the rank need
    only the counts.
    """

    n: int
    zero_columns: Tuple[IndexTuple, ...]
    counts: Dict[int, int]
    _blocks: Callable[[], List[Block]] = dataclass_field(repr=False, compare=False)

    @cached_property
    def blocks(self) -> List[Block]:
        return self._blocks()

    def census(self) -> Dict[str, int]:
        """Multiplicity of each atlas label, largest first."""
        return {f"L{r_value(m)}": self.counts[m] for m in sorted(self.counts, reverse=True)}

    def rank(self, field: Field) -> int:
        """Rank of the decomposed matrix over field.

        The matrix is the direct sum of its blocks and zero columns, and
        each block is its atlas member L(m) as it stands, so its rank is
        the sum over m of the number of blocks with that m times
        rank(L(m)), which ``_atlas_rank`` gives in closed form.
        """
        return sum(c * _atlas_rank(m, field.char) for m, c in self.counts.items())


class _ClassTable(NamedTuple):
    """The free-part classes of B(n)'s canonical labels, which n alone
    fixes: rows and columns grouped by free part, each class in B's
    order, in first-seen order of the free parts among the rows; the
    columns of no class, those without a complete pair, come last."""

    m: List[int]  # the m of each class
    rows: np.ndarray  # B's rows, class by class
    cols: np.ndarray  # B's columns, class by class, then the zero columns
    row_start: List[int]  # where each class starts in rows, then the row count
    col_start: List[int]  # where each class starts in cols, then the zero columns, then the column count
    row_cls: np.ndarray  # the class of each row
    col_cls: np.ndarray  # the class of each column, the class count for a zero column
    local: np.ndarray  # a column's place among its class's columns
    row_m: np.ndarray  # the m of each row's class
    counts: Dict[int, int]  # the number of classes of each m


@lru_cache(maxsize=None)
def _class_table(n: int) -> _ClassTable:
    """The class table of B(n)'s canonical labels, built once per n from
    the arrays of ``coordinates``; its arrays are read-only."""
    rows, cols = coordinates(n - 2, n), coordinates(n, n)
    row_free, col_free = (np.where(c.paired, 0, 1 << c.array).sum(axis=1) for c in (rows, cols))
    # the distinct free-part bitmasks, sorted, renumbered in first-seen order
    free, first, inverse = np.unique(row_free, return_index=True, return_inverse=True)
    k = len(free)
    seen = np.empty(k, dtype=np.int64)
    seen[np.argsort(first)] = np.arange(k)
    row_cls = seen[inverse.reshape(-1)]
    at = np.minimum(np.searchsorted(free, col_free), k - 1)
    col_cls = np.where(free[at] == col_free, seen[at], k)
    m = n - (~rows.paired[np.sort(first)]).sum(axis=1)
    row_order, col_order = np.argsort(row_cls, kind="stable"), np.argsort(col_cls, kind="stable")
    row_start = np.concatenate(([0], np.cumsum(np.bincount(row_cls, minlength=k))))
    col_start = np.concatenate(([0], np.cumsum(np.bincount(col_cls, minlength=k + 1))))
    local = np.empty(len(col_cls), dtype=np.int64)
    local[col_order] = np.arange(len(col_cls)) - col_start[col_cls[col_order]]
    row_m = m[row_cls]
    for a in (row_order, col_order, row_cls, col_cls, local, row_m):
        a.flags.writeable = False
    m = m.tolist()
    return _ClassTable(
        m, row_order, col_order, row_start.tolist(), col_start.tolist(), row_cls, col_cls, local, row_m, dict(Counter(m))
    )


def _check_labels(kind: str, labels: Tuple[IndexTuple, ...], canonical: List[IndexTuple]) -> None:
    """Raise DecompositionError unless labels are the canonical tuples,
    naming the first position where they differ, or both counts when one
    list is a prefix of the other."""
    if labels == tuple(canonical):
        return
    for k, (got, want) in enumerate(zip(labels, canonical)):
        if got != want:
            raise DecompositionError(f"{kind} {k} is labelled {got}, expected {want} in the canonical order")
    raise DecompositionError(f"{len(labels)} {kind} labels, expected {len(canonical)}")


def _direct_sum(b: PlueckerMatrix) -> _ClassTable:
    """B's class table, once every check of ``decompose`` has passed on B;
    otherwise raises DecompositionError, its witness named from the
    arrays of the check that failed."""
    n = b.n
    _check_labels("row", b.row_tuples, coordinates(n - 2, n).tuples)
    _check_labels("column", b.col_tuples, coordinates(n, n).tuples)
    c = _class_table(n)
    e_row = b.row_ids()
    outside = np.flatnonzero(c.row_cls[e_row] != c.col_cls[b.indices])
    if len(outside):
        e = outside[0]  # B's ones are in row-major order
        raise DecompositionError(
            f"the one at row {b.row_tuples[e_row[e]]}, column {b.col_tuples[b.indices[e]]} lies outside its class"
        )
    # the labels give each class the shape of its L(m): the (m - 2)/2 and
    # the m/2 of the m pairs outside its free part. B's rows and their
    # ones class by class: the blocks of each m, rows and columns in B's
    # order, must be their L(m)'s CSR arrays, tiled
    weights, weight_m = np.diff(b.indptr)[c.rows], c.row_m[c.rows]
    one_order = np.argsort(c.row_cls[e_row], kind="stable")
    ones, one_m = c.local[b.indices[one_order]], c.row_m[e_row[one_order]]
    for mm, count in c.counts.items():
        ref = incidence_matrix(mm)
        if not (
            np.array_equal(weights[weight_m == mm], np.tile(np.diff(ref.indptr), count))
            and np.array_equal(ones[one_m == mm], np.tile(ref.indices, count))
        ):
            raise _block_mismatch(b, c, mm)
    return c


def _block_mismatch(b: PlueckerMatrix, c: _ClassTable, m: int) -> BlockEquivalenceError:
    """The error naming, by pair lows, the first differing entry of the
    first block of m that is not L(m). The blocks are compared densely,
    so this runs only once the tiled comparison of m has failed."""
    ref_bits = incidence_matrix(m).bits
    for k in (k for k, mk in enumerate(c.m) if mk == m):
        rows = c.rows[c.row_start[k] : c.row_start[k + 1]].tolist()
        bits = np.zeros_like(ref_bits)
        for r, i in enumerate(rows):
            bits[r, c.local[b.indices[b.indptr[i] : b.indptr[i + 1]]]] = 1
        differ = np.argwhere(bits != ref_bits)
        if len(differ):
            i, j = differ[0].tolist()
            row, col = b.row_tuples[rows[i]], b.col_tuples[c.cols[c.col_start[k] + j]]
            row_l, col_l = (tuple(p.low for p in split_free_pairs(t, b.n).pairs) for t in (row, col))
            return BlockEquivalenceError(f"bit mismatch at block row {row_l}, column {col_l}")


def _sliced_blocks(b: PlueckerMatrix, c: _ClassTable, references: Dict[int, IncidenceMatrix]) -> List[Block]:
    """The blocks of b, in first-seen order of their free parts, sliced
    from the class table of _direct_sum: each one's matrix is the arrays
    of its L(m) under B's pair lows."""
    n = b.n
    rows, cols = coordinates(n - 2, n), coordinates(n, n)
    shared: Dict[PairTuple, PairTuple] = {}  # one tuple per distinct label, for all the blocks

    def nonzero_tuples(arr: np.ndarray) -> List[tuple]:
        return [shared.setdefault(t, t) for t in map(tuple, map(partial(filter, None), arr.tolist()))]

    row_t, col_t = [b.row_tuples[i] for i in c.rows.tolist()], [b.col_tuples[j] for j in c.cols.tolist()]
    row_l = nonzero_tuples(np.where(rows.paired & (rows.array <= n), rows.array, 0)[c.rows])
    col_l = nonzero_tuples(np.where(cols.paired & (cols.array <= n), cols.array, 0)[c.cols])
    free = nonzero_tuples(np.where(rows.paired, 0, rows.array)[c.rows[c.row_start[:-1]]])
    rs, cs = c.row_start, c.col_start
    out = []
    for k, m in enumerate(c.m):
        ref, r0, r1, c0, c1 = references[m], rs[k], rs[k + 1], cs[k], cs[k + 1]
        labels = tuple(row_l[r0:r1]), tuple(col_l[c0:c1])
        mat = IncidenceMatrix._checked(ref.rows, ref.cols, ref.indptr, ref.indices, *labels)
        mat.m = m
        out.append(Block(free[k], m, tuple(row_t[r0:r1]), tuple(col_t[c0:c1]), mat))
    return out


def decompose(b: PlueckerMatrix) -> BlockDecomposition:
    """Split the relation matrix into its incidence blocks and verify each.

    B's labels must be the canonical tuples of ``coordinates``, the order
    that ``build_plucker_matrix`` gives. Rows and columns are grouped by
    the free part of their tuple. In that order every block is its atlas
    member L(m), m = n - (free size), as it stands: within a class the
    tuples share their free entries and each pair low lies below every
    pair high, so their lexicographic order is that of their pair lows,
    which the order-preserving renumbering onto 1..m keeps. So decompose
    checks that each one of B joins a row and a column of one class, and
    that each class's block, rows and columns in B's order, has L(m)'s
    CSR arrays; no label is renumbered or ranked. The columns of no class
    are those without a complete pair, the zero columns, and the labels
    hold C(2n, n) columns: B is then the direct sum of its blocks and the
    zero columns.

    What n and m alone fix is built once per process and shared: the
    atlas members (``incidence_matrix``) and the class of every canonical
    row and column. What B could get wrong is checked on every call: its
    labels against the canonical ones, each of its ones against the
    classes, and its arrays against the tiled L(m).

    A failed check raises DecompositionError naming its witness: the
    first label out of the canonical order, the first one of B, in
    row-major order, outside its class, or, as BlockEquivalenceError, the
    first differing entry of the first block of that m other than L(m).
    """
    if not isinstance(b, PlueckerMatrix):
        raise TypeError(f"decompose needs a PlueckerMatrix, got {type(b).__name__}")
    c = _direct_sum(b)
    references = {m: incidence_matrix(m) for m in c.counts}
    zero_cols = tuple(b.col_tuples[j] for j in c.cols[c.col_start[-2] :].tolist())
    return BlockDecomposition(b.n, zero_cols, dict(c.counts), partial(_sliced_blocks, b, c, references))
