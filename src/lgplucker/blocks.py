"""The atlas members L(m) and the block structure of the relation matrix.

For even m, L(m) is the inclusion matrix of the (m-2)/2-subsets of [1, m]
(rows) against its m/2-subsets (columns), both in lexicographic order:
row alpha has a one at alpha + {x} for each x outside alpha (Wilson,
Europ. J. Combin. 11, 1990). It is regular and sparse: r = (m+2)/2 ones
per row, r - 1 per column, and any two rows share at most one column.

The relation matrix decomposes into copies of these: group its rows by
the free part of their index tuple; each class, restricted to the columns
its rows touch, is a copy of L(m) for m = n - (free size), after the
order-preserving renumbering of the surviving pairs onto 1..m. Columns
whose index tuple contains no complementary pair are identically zero and
are listed separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property, partial
from math import comb
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from . import linalg
from .combinatorics import IndexTuple, binomials, index_tuples, paired_entries, tuple_array
from .fields import Field
from .frlc import PlueckerMatrix

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
    """One decomposition block: a relabeled copy of an atlas member."""

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
    parts; it is built when first read, from the classes and label
    positions of ``matrix`` that ``decompose`` checked, computed again,
    as the census and the rank need only the counts.
    """

    n: int
    zero_columns: Tuple[IndexTuple, ...]
    references: Dict[int, IncidenceMatrix]
    counts: Dict[int, int]
    matrix: PlueckerMatrix = dataclass_field(repr=False, compare=False)

    @cached_property
    def blocks(self) -> List[Block]:
        return _array_blocks(self.matrix, _classes(self.matrix, self.references))

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


def _class_blocks(b: PlueckerMatrix) -> None:
    """decompose's checks one class of rows at a time, in first-seen order
    of their free parts, each block by verify_block_equiv: raises
    DecompositionError at the first column claimed by two classes or the
    first block that fails, naming the witness."""
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
    references: Dict[int, IncidenceMatrix] = {}
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
        verify_block_equiv(mat, references[m])


class _Classes(NamedTuple):
    """B's rows grouped by free part and the columns each group touches,
    as int arrays, with the position of every label in its L(m)."""

    count: int  # the number of classes, numbered in first-seen order of their free parts
    m: np.ndarray  # the m of each class, then 2n for the columns no row touches
    cls: np.ndarray  # the class of each row
    owner: np.ndarray  # the class of each column, count for none
    ranks: Tuple[np.ndarray, np.ndarray] | None  # row and column positions; None if a check failed
    tuples: Tuple[np.ndarray, np.ndarray]  # B's row and column tuples as arrays
    paired: Tuple[np.ndarray, np.ndarray]  # True at each entry of a complete pair in them


def _classes(b: PlueckerMatrix, references: Dict[int, IncidenceMatrix]) -> _Classes:
    """verify_block_equiv's checks for all the classes of rows of b at
    once, on int arrays, against references[m] (added when missing)."""
    n = b.n
    rows, cols = tuple_array(b.row_tuples, n - 2), tuple_array(b.col_tuples, n)
    row_paired, col_paired = paired_entries(rows, n), paired_entries(cols, n)
    row_low, col_low = row_paired & (rows <= n), col_paired & (cols <= n)
    classes: Dict[int, int] = {}  # free-part bitmask -> class, in first-seen order
    free_masks = np.where(row_paired, 0, 1 << rows).sum(axis=1).tolist()
    cls = np.array([classes.setdefault(f, len(classes)) for f in free_masks], dtype=np.int64)
    # one more class, k_all, takes the columns no row touches; its m = 2n
    # keeps their (unread) ranks inside the binomial table
    k_all = len(classes)
    m = np.array([n - f.bit_count() for f in classes] + [2 * n])
    half = m >> 1
    for mm in dict.fromkeys(m[:k_all].tolist()):
        if mm not in references:
            references[mm] = incidence_matrix(mm)

    # a column belongs to the class whose rows touch it; an entry of
    # another class in it is a second claimant
    e_col, e_row = b.indices, b.row_ids()
    owner = np.full(len(cols), k_all)
    owner[e_col] = cls[e_row]
    own = owner < k_all
    # the pair lows of class k renumber onto 1..m: low x becomes ren[k, x],
    # the number of lows of its columns up to x
    lows = np.zeros((k_all + 1, 2 * n + 1), dtype=bool)
    for q in range(n):
        lows[owner, np.where(col_low[:, q], cols[:, q], 0)] = True
    lows[:, 0] = False
    table = binomials(2 * n + 2)
    # verify_block_equiv's checks: the shape, m pairs, the row pairs among
    # them, m/2 pairs per column label, r ones per row ...
    fits = (
        (owner[e_col] == cls[e_row]).all()
        and (np.bincount(cls, minlength=k_all + 1) == table[m, half - 1])[:k_all].all()
        and (np.bincount(owner, minlength=k_all + 1) == table[m, half])[:k_all].all()
        and (lows.sum(axis=1) == m)[:k_all].all()
        and (lows[cls[:, None], rows] | ~row_low).all()
        and ((col_low.sum(axis=1) == half[owner]) | ~own).all()
        and (np.diff(b.indptr) == half[cls] + 1).all()
    )
    ranks = None
    if fits:
        ren = lows.cumsum(axis=1)

        def positions(arr, low, k, size):
            # tuple_rank's closed form on the renumbered labels, one position at a time
            out, left = table[m[k], size] - 1, size + 1
            for q in range(arr.shape[1]):
                left = left - low[:, q]
                out -= np.where(low[:, q], table[m[k] - ren[k, arr[:, q]], left], 0)
            return out

        row_rank, col_rank = positions(rows, row_low, cls, half[cls] - 1), positions(cols, col_low, owner, half[owner])
        # ... no two columns of a class with one label ...
        width = table[m[:k_all], half[:k_all]]
        seen = np.zeros(int(width.sum()), dtype=bool)
        seen[(np.cumsum(width) - width)[owner[own]] + col_rank[own]] = True
        # ... and each one of B at a one of the reference
        e_m = m[cls[e_row]]
        if seen.all() and all(
            references[mm].bits[row_rank[e_row[e_m == mm]], col_rank[e_col[e_m == mm]]].all() for mm in references
        ):
            ranks = (row_rank, col_rank)
    return _Classes(k_all, m, cls, owner, ranks, (rows, cols), (row_paired, col_paired))


def _array_blocks(b: PlueckerMatrix, c: _Classes) -> List[Block]:
    """The blocks of b, in first-seen order of their free parts, from the
    classes, owners and label positions of a checked _Classes."""
    (row_rank, col_rank), (rows, cols), (row_paired, col_paired) = c.ranks, c.tuples, c.paired
    shared: Dict[PairTuple, PairTuple] = {}  # one tuple per distinct label, for all the blocks

    def nonzero_tuples(arr: np.ndarray) -> List[tuple]:
        return [shared.setdefault(t, t) for t in map(tuple, map(partial(filter, None), arr.tolist()))]

    # rows and columns sorted by class, each class in B's order
    rorder, corder = np.argsort(c.cls, kind="stable"), np.argsort(c.owner, kind="stable")
    rstart, cstart = (np.concatenate(([0], np.cumsum(np.bincount(x, minlength=c.count + 1)))) for x in (c.cls, c.owner))
    local = np.empty(b.cols, dtype=np.int64)  # a column's place among its class's columns
    local[corder] = np.arange(b.cols) - cstart[c.owner[corder]]
    weights = np.diff(b.indptr)[rorder]
    ptr = np.concatenate(([0], np.cumsum(weights)))
    ones = local[b.indices[np.repeat(b.indptr[rorder] - ptr[:-1], weights) + np.arange(ptr[-1])]]
    # each class's indptr, one after the other: class k's starts at rstart[k] + k
    indptr = np.zeros(b.rows + c.count, dtype=np.int64)
    cls = c.cls[rorder]
    indptr[np.arange(b.rows) + cls + 1] = ptr[1:] - ptr[rstart[cls]]
    ones.flags.writeable = indptr.flags.writeable = False
    row_t, col_t = [b.row_tuples[i] for i in rorder.tolist()], [b.col_tuples[j] for j in corder.tolist()]
    row_l = nonzero_tuples(np.where(row_paired & (rows <= b.n), rows, 0)[rorder])
    col_l = nonzero_tuples(np.where(col_paired & (cols <= b.n), cols, 0)[corder])
    free = nonzero_tuples(np.where(row_paired, 0, rows)[rorder[rstart[: c.count]]])
    row_p, col_p = row_rank[rorder].tolist(), col_rank[corder].tolist()
    rs, cs, ps = rstart.tolist(), cstart.tolist(), ptr.tolist()
    out = []
    for k, m in enumerate(c.m[: c.count].tolist()):
        r0, r1, c0, c1 = rs[k], rs[k + 1], cs[k], cs[k + 1]
        mat = IncidenceMatrix._checked(
            r1 - r0, c1 - c0, indptr[r0 + k : r1 + k + 1], ones[ps[r0] : ps[r1]], tuple(row_l[r0:r1]), tuple(col_l[c0:c1])
        )
        mat.m = m
        out.append(Block(free[k], m, tuple(row_t[r0:r1]), tuple(col_t[c0:c1]), mat, tuple(row_p[r0:r1]), tuple(col_p[c0:c1])))
    return out


def decompose(b: PlueckerMatrix) -> BlockDecomposition:
    """Split the relation matrix into its incidence blocks and verify each.

    Rows are grouped by the free part of their tuple; a class with free
    part of size t restricts to the columns it touches as a copy of the
    atlas member for m = n - t, checked bit for bit through the canonical
    pair renumbering. No column may be touched by two classes, every
    column left over must contain no complete pair, and the block widths
    plus the zero columns must add up to C(2n, n): B is then the direct
    sum of its blocks and the zero columns.

    The checks run on int arrays over all classes at once; should one
    fail, the classes are gone through one by one with
    ``verify_block_equiv``, which names the witness.
    """
    n = b.n
    references: Dict[int, IncidenceMatrix] = {}
    c = _classes(b, references)
    if c.ranks is None:
        _class_blocks(b)  # raises at the first class that fails
    uncovered = c.owner == c.count
    stray = np.flatnonzero(uncovered & c.paired[1].any(axis=1))
    if stray.size:
        raise DecompositionError(f"uncovered column {b.col_tuples[stray[0]]} contains a complete pair")
    zero_cols = tuple(b.col_tuples[j] for j in np.flatnonzero(uncovered).tolist())
    if b.cols != comb(2 * n, n):
        raise DecompositionError(
            f"{b.cols - len(zero_cols)} block columns and {len(zero_cols)} zero columns, expected {comb(2 * n, n)} in all"
        )
    counts = dict(Counter(c.m[: c.count].tolist()))
    return BlockDecomposition(n, zero_cols, references, counts, b)
