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
from functools import cached_property, partial
from math import comb
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import linalg
from .combinatorics import IndexTuple, binomials, index_tuples, paired_entries, tuple_array
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
    """A block does not match its atlas member under pair renumbering."""


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


def incidence_matrix(m: int) -> IncidenceMatrix:
    """The atlas member L(m) for even m >= 2, labelled by its subsets."""
    if m < 2 or m % 2:
        raise ValueError(f"need an even m >= 2, got {m}")
    k = m // 2
    rows, cols = tuple(index_tuples(k - 1, m)), tuple(index_tuples(k, m))
    alpha, c, q = tuple_array(rows, k - 1), binomials(m + 1), np.arange(k - 1)
    ranks = np.empty((len(rows), m), dtype=np.int64)
    for x in range(1, m + 1):
        # the lexicographic rank of alpha + {x} (see combinatorics.binomials):
        # an entry of alpha at position q moves to q + [alpha_q > x], x to #{alpha_q < x}
        ranks[:, x - 1] = (
            comb(m, k) - 1 - c[m - alpha, k - q - (alpha > x)].sum(axis=1) - c[m - x, k - (alpha < x).sum(axis=1)]
        )
    outside = np.ones((len(rows), m + 1), dtype=bool)
    outside[np.arange(len(rows))[:, None], alpha] = False
    # alpha + {x} grows in lexicographic order with x, so each row's columns increase
    indptr = np.arange(len(rows) + 1) * (k + 1)
    return IncidenceMatrix(m, linalg.BinaryMatrix(len(rows), len(cols), csr=(indptr, ranks[outside[:, 1:]])), rows, cols)


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


def verify_block_equiv(block: IncidenceMatrix, reference: IncidenceMatrix) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Row and column permutations carrying the block onto the reference.

    The block's labels use original pair indices; the order-preserving
    renumbering of its surviving pairs onto 1..m is the only relabeling
    tried. Returns (row_perm, col_perm) with block[i, j] ==
    reference[row_perm[i], col_perm[j]]; raises BlockEquivalenceError
    otherwise, naming the first differing row and column.
    """
    if block.shape != reference.shape or block.m != reference.m:
        raise BlockEquivalenceError(
            f"shape mismatch: block {block.shape} (m={block.m}) vs reference "
            f"{reference.shape} (m={reference.m})"
        )
    lows = sorted({x for lbl in block.col_labels for x in lbl})
    if len(lows) != block.m:
        raise BlockEquivalenceError(f"block columns mention {len(lows)} pairs, expected {block.m}")
    renumber = {low: k + 1 for k, low in enumerate(lows)}
    ref_row_pos = {lbl: i for i, lbl in enumerate(reference.row_labels)}
    ref_col_pos = {lbl: j for j, lbl in enumerate(reference.col_labels)}
    try:
        row_perm = tuple(ref_row_pos[tuple(renumber[x] for x in lbl)] for lbl in block.row_labels)
        col_perm = tuple(ref_col_pos[tuple(renumber[x] for x in lbl)] for lbl in block.col_labels)
    except KeyError as exc:
        raise BlockEquivalenceError(f"relabeled subset {exc} missing from the reference") from exc
    if len(set(col_perm)) < len(col_perm):
        raise BlockEquivalenceError("two block columns carry the same label")
    differ = block.bits != reference.bits[np.ix_(row_perm, col_perm)]
    if differ.any():
        i, j = divmod(int(differ.argmax()), block.cols)
        raise BlockEquivalenceError(f"bit mismatch at block row {block.row_labels[i]}, column {block.col_labels[j]}")
    return row_perm, col_perm


@dataclass
class Block:
    """One decomposition block: a copy of an atlas member under B's labels.

    On B's canonical labels the block is L(m) as it stands, so both
    permutations are the identity; ``decompose``'s class-by-class pass
    fills them in from ``verify_block_equiv`` for labels in another order.
    """

    free: IndexTuple
    m: int
    row_tuples: Tuple[IndexTuple, ...]
    col_tuples: Tuple[IndexTuple, ...]
    matrix: IncidenceMatrix
    row_perm: Tuple[int, ...]
    col_perm: Tuple[int, ...]

    @property
    def label(self) -> str:
        return f"L{r_value(self.m)}"


@dataclass
class BlockDecomposition:
    """Partition of the relation matrix into atlas blocks plus zero columns.

    ``references`` maps each m that occurs to the atlas member L(m) its
    blocks were checked against, and ``counts`` maps it to the number of
    those blocks. ``blocks`` lists them in first-seen order of their free
    parts. On B's canonical labels every block is L(m) as it stands, with
    identity permutations, and the list is sliced, when first read, from
    the class order ``decompose`` computed; nothing is checked again. The
    census and the rank need only the counts.
    """

    n: int
    zero_columns: Tuple[IndexTuple, ...]
    references: Dict[int, IncidenceMatrix]
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
        each block is its atlas member L(m) up to row and column
        permutations, so its rank is the sum over m of the number of
        blocks with that m times rank(L(m)). Only the distinct atlas
        members are eliminated.
        """
        return sum(c * linalg.rank(self.references[m].to_exact(field)) for m, c in self.counts.items())


def _class_blocks(
    b: PlueckerMatrix, references: Dict[int, IncidenceMatrix]
) -> Tuple[List[Block], Tuple[IndexTuple, ...]]:
    """decompose one class of rows at a time, in first-seen order of their
    free parts, each block checked by verify_block_equiv against
    references[m] (added when missing): the blocks and the zero columns.
    Raises DecompositionError, naming the witness, at the first column
    claimed by two classes or the first block that fails, then at an
    uncovered column with a complete pair or a column count other than
    C(2n, n)."""
    n = b.n
    supports = b.row_supports
    classes: Dict[IndexTuple, List[int]] = {}

    def label(t: IndexTuple, paired: List[bool]) -> PairTuple:
        return tuple([x for x, p in zip(t, paired) if p and x <= n])

    row_paired = paired_entries(tuple_array(b.row_tuples, n - 2), n).tolist()
    for i, (t, pt) in enumerate(zip(b.row_tuples, row_paired)):
        classes.setdefault(tuple([x for x, p in zip(t, pt) if not p]), []).append(i)
    row_labels = list(map(label, b.row_tuples, row_paired))
    col_labels = list(map(label, b.col_tuples, paired_entries(tuple_array(b.col_tuples, n), n).tolist()))
    owner: List[IndexTuple | None] = [None] * len(b.col_tuples)
    blocks = []
    for free, rows_idx in classes.items():
        m = n - len(free)
        if m not in references:
            references[m] = incidence_matrix(m)
        col_idx = sorted({j for i in rows_idx for j in supports[i]})
        for j in col_idx:
            if owner[j] is not None:
                raise DecompositionError(
                    f"column {b.col_tuples[j]} is claimed by the blocks of free parts {owner[j]} and {free}"
                )
            owner[j] = free
        col_pos = {j: k for k, j in enumerate(col_idx)}
        mat = IncidenceMatrix(
            m,
            linalg.BinaryMatrix(len(rows_idx), len(col_idx), [[col_pos[j] for j in supports[i]] for i in rows_idx]),
            tuple(row_labels[i] for i in rows_idx),
            tuple(col_labels[j] for j in col_idx),
        )
        row_perm, col_perm = verify_block_equiv(mat, references[m])
        row_tuples, col_tuples = tuple(b.row_tuples[i] for i in rows_idx), tuple(b.col_tuples[j] for j in col_idx)
        blocks.append(Block(free, m, row_tuples, col_tuples, mat, row_perm, col_perm))
    zero = [j for j, o in enumerate(owner) if o is None]
    stray = [j for j in zero if col_labels[j]]
    if stray:
        raise DecompositionError(f"uncovered column {b.col_tuples[stray[0]]} contains a complete pair")
    if b.cols != comb(2 * n, n):
        raise DecompositionError(
            f"{b.cols - len(zero)} block columns and {len(zero)} zero columns, expected {comb(2 * n, n)} in all"
        )
    return blocks, tuple(b.col_tuples[j] for j in zero)


class _ClassOrder(NamedTuple):
    """B's rows and columns grouped by free part, each class in B's order,
    in first-seen order of the free parts among the rows; the columns of
    no class, those without a complete pair, come last."""

    m: List[int]  # the m of each class
    rows: np.ndarray  # B's rows, class by class
    cols: np.ndarray  # B's columns, class by class, then the zero columns
    row_start: List[int]  # where each class starts in rows, then the row count
    col_start: List[int]  # where each class starts in cols, then the zero columns, then the column count


def _direct_sum(b: PlueckerMatrix, references: Dict[int, IncidenceMatrix]) -> _ClassOrder | None:
    """B's classes if its labels are the canonical tuples of
    ``coordinates``, each one of B joins a row and a column of one class,
    and each class's block, rows and columns in B's order, is
    references[m] (added when missing) as it stands; None otherwise."""
    n = b.n
    rows, cols = coordinates(n - 2, n), coordinates(n, n)
    if b.row_tuples != tuple(rows.tuples) or b.col_tuples != tuple(cols.tuples):
        return None
    classes: Dict[int, int] = {}  # free-part bitmask -> class
    row_free, col_free = (np.where(c.paired, 0, 1 << c.array).sum(axis=1).tolist() for c in (rows, cols))
    row_cls = np.array([classes.setdefault(f, len(classes)) for f in row_free], dtype=np.int64)
    k = len(classes)
    col_cls = np.array([classes.get(f, k) for f in col_free], dtype=np.int64)
    m = [n - f.bit_count() for f in classes]
    for mm in m:
        if mm not in references:
            references[mm] = incidence_matrix(mm)
    e_row, row_m = b.row_ids(), np.array(m)[row_cls]
    if (row_cls[e_row] != col_cls[b.indices]).any():
        return None
    # the labels give each class the shape of its L(m): the (m - 2)/2 and
    # the m/2 of the m pairs outside its free part
    row_order, col_order = np.argsort(row_cls, kind="stable"), np.argsort(col_cls, kind="stable")
    col_start = np.concatenate(([0], np.cumsum(np.bincount(col_cls, minlength=k + 1))))
    local = np.empty(b.cols, dtype=np.int64)  # a column's place among its class's columns
    local[col_order] = np.arange(b.cols) - col_start[col_cls[col_order]]
    # B's rows and their ones class by class: the blocks of each m, rows
    # and columns in B's order, must be their L(m)'s CSR arrays, tiled
    weights, weight_m = np.diff(b.indptr)[row_order], row_m[row_order]
    one_order = np.argsort(row_cls[e_row], kind="stable")
    ones, one_m = local[b.indices[one_order]], row_m[e_row[one_order]]
    for mm, count in Counter(m).items():
        ref = references[mm]
        if not (
            np.array_equal(weights[weight_m == mm], np.tile(np.diff(ref.indptr), count))
            and np.array_equal(ones[one_m == mm], np.tile(ref.indices, count))
        ):
            return None
    row_start = np.concatenate(([0], np.cumsum(np.bincount(row_cls, minlength=k))))
    return _ClassOrder(m, row_order, col_order, row_start.tolist(), col_start.tolist())


def _sliced_blocks(b: PlueckerMatrix, c: _ClassOrder, references: Dict[int, IncidenceMatrix]) -> List[Block]:
    """The blocks of b, in first-seen order of their free parts, sliced
    from the class order of _direct_sum: each one's matrix is the arrays
    of its L(m) under B's pair lows, its permutations the identity."""
    n = b.n
    rows, cols = coordinates(n - 2, n), coordinates(n, n)
    shared: Dict[PairTuple, PairTuple] = {}  # one tuple per distinct label, for all the blocks

    def nonzero_tuples(arr: np.ndarray) -> List[tuple]:
        return [shared.setdefault(t, t) for t in map(tuple, map(partial(filter, None), arr.tolist()))]

    row_t, col_t = [b.row_tuples[i] for i in c.rows.tolist()], [b.col_tuples[j] for j in c.cols.tolist()]
    row_l = nonzero_tuples(np.where(rows.paired & (rows.array <= n), rows.array, 0)[c.rows])
    col_l = nonzero_tuples(np.where(cols.paired & (cols.array <= n), cols.array, 0)[c.cols])
    free = nonzero_tuples(np.where(rows.paired, 0, rows.array)[c.rows[c.row_start[:-1]]])
    identity = {m: (tuple(range(ref.rows)), tuple(range(ref.cols))) for m, ref in references.items()}
    rs, cs = c.row_start, c.col_start
    out = []
    for k, m in enumerate(c.m):
        ref, r0, r1, c0, c1 = references[m], rs[k], rs[k + 1], cs[k], cs[k + 1]
        labels = tuple(row_l[r0:r1]), tuple(col_l[c0:c1])
        mat = IncidenceMatrix._checked(ref.rows, ref.cols, ref.indptr, ref.indices, *labels)
        mat.m = m
        out.append(Block(free[k], m, tuple(row_t[r0:r1]), tuple(col_t[c0:c1]), mat, *identity[m]))
    return out


def decompose(b: PlueckerMatrix) -> BlockDecomposition:
    """Split the relation matrix into its incidence blocks and verify each.

    Rows and columns are grouped by the free part of their tuple. On the
    canonical labels of ``build_plucker_matrix`` every block is its atlas
    member L(m), m = n - (free size), as it stands: within a class the
    tuples share their free entries and each pair low lies below every
    pair high, so their lexicographic order is that of their pair lows,
    which the order-preserving renumbering onto 1..m keeps. So decompose
    checks that each one of B joins a row and a column of one class, and
    that each class's block, rows and columns in B's order, has L(m)'s
    CSR arrays; no label is renumbered or ranked and both permutations are
    the identity. The columns of no class are those without a complete
    pair, the zero columns, and the labels hold C(2n, n) columns: B is
    then the direct sum of its blocks and the zero columns.

    For labels in another order, or when a check fails, the classes are
    gone through one by one with ``verify_block_equiv``, each restricted
    to the columns its rows touch: that pass returns the blocks with
    their permutations or raises DecompositionError, naming the witness.
    """
    references: Dict[int, IncidenceMatrix] = {}
    c = _direct_sum(b, references)
    if c is None:
        blocks, zero_cols = _class_blocks(b, references)
        return BlockDecomposition(b.n, zero_cols, references, dict(Counter(blk.m for blk in blocks)), blocks.copy)
    zero_cols = tuple(b.col_tuples[j] for j in c.cols[c.col_start[-2] :].tolist())
    return BlockDecomposition(b.n, zero_cols, references, dict(Counter(c.m)), partial(_sliced_blocks, b, c, references))
