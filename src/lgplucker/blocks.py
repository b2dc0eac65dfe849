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
from functools import cached_property
from itertools import chain
from math import comb
from typing import Dict, Iterator, List, Tuple

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
        self.rows, self.cols, self.row_supports = matrix.rows, matrix.cols, matrix.row_supports
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
    rows = tuple(index_tuples((m - 2) // 2, m))
    cols = tuple(index_tuples(m // 2, m))
    col_index = {beta: j for j, beta in enumerate(cols)}
    # alpha + {x} grows in lexicographic order with x, so each support is increasing
    supports = [
        [col_index[tuple(sorted(alpha + (x,)))] for x in range(1, m + 1) if x not in alpha] for alpha in rows
    ]
    return IncidenceMatrix(m, linalg.BinaryMatrix(len(rows), len(cols), supports), rows, cols)


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
    failures: List[str] = []
    for i, w in enumerate(mat.row_weights()):
        if w != r:
            failures.append(f"row {mat.row_labels[i]} has weight {w}, expected {r}")
    for j, w in enumerate(mat.column_weights()):
        if w != r - 1:
            failures.append(f"column {mat.col_labels[j]} has weight {w}, expected {r - 1}")
    overlap = 0
    if mat.rows > 1:
        bits = mat.bits.astype(np.int64)
        gram = bits @ bits.T
        np.fill_diagonal(gram, 0)
        overlap = int(gram.max())
        if overlap > 1:
            i, j = np.unravel_index(int(gram.argmax()), gram.shape)
            failures.append(
                f"rows {mat.row_labels[int(i)]} and {mat.row_labels[int(j)]} share {overlap} columns"
            )
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
    # col_perm is a bijection, so row i matches exactly when col_perm
    # carries its columns onto those of reference row row_perm[i]
    for i, (have, r) in enumerate(zip(block.row_supports, row_perm)):
        want = reference.row_supports[r]
        if tuple(sorted(col_perm[j] for j in have)) != want:
            j = next(j for j in range(block.cols) if (j in have) != (col_perm[j] in want))
            raise BlockEquivalenceError(
                f"bit mismatch at block row {block.row_labels[i]}, column {block.col_labels[j]}"
            )
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
    parts; it is built from ``matrix`` when first read, as the census and
    the rank need only the counts.
    """

    n: int
    zero_columns: Tuple[IndexTuple, ...]
    references: Dict[int, IncidenceMatrix]
    counts: Dict[int, int]
    matrix: PlueckerMatrix = dataclass_field(repr=False, compare=False)

    @cached_property
    def blocks(self) -> List[Block]:
        return list(_class_blocks(self.matrix, self.references))

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


def _class_blocks(b: PlueckerMatrix, references: Dict[int, IncidenceMatrix]) -> Iterator[Block]:
    """The blocks of b one class of rows at a time, in first-seen order of
    their free parts, each checked by verify_block_equiv against
    references[m] (added when missing). Raises DecompositionError at the
    first column claimed by two classes or the first block that fails."""
    n = b.n
    classes: Dict[IndexTuple, List[int]] = {}
    shared: Dict[PairTuple, PairTuple] = {}  # one tuple per distinct label, for all the blocks

    def label(t: IndexTuple, paired: List[bool]) -> PairTuple:
        lows = tuple([x for x, p in zip(t, paired) if p and x <= n])
        return shared.setdefault(lows, lows)

    row_paired = paired_entries(tuple_array(b.row_tuples, n - 2), n).tolist()
    for i, (t, pt) in enumerate(zip(b.row_tuples, row_paired)):
        classes.setdefault(tuple([x for x, p in zip(t, pt) if not p]), []).append(i)
    row_labels = list(map(label, b.row_tuples, row_paired))
    del row_paired
    col_labels = list(map(label, b.col_tuples, paired_entries(tuple_array(b.col_tuples, n), n).tolist()))
    owner: List[IndexTuple | None] = [None] * len(b.col_tuples)
    for free, rows_idx in classes.items():
        m = n - len(free)
        if m not in references:
            references[m] = incidence_matrix(m)
        col_idx = sorted({j for i in rows_idx for j in b.row_supports[i]})
        for j in col_idx:
            if owner[j] is not None:
                raise DecompositionError(
                    f"column {b.col_tuples[j]} is claimed by the blocks of free parts {owner[j]} and {free}"
                )
            owner[j] = free
        col_pos = {j: k for k, j in enumerate(col_idx)}
        supports = [[col_pos[j] for j in b.row_supports[i]] for i in rows_idx]
        mat = IncidenceMatrix(
            m,
            linalg.BinaryMatrix(len(rows_idx), len(col_idx), supports),
            tuple(row_labels[i] for i in rows_idx),
            tuple(col_labels[j] for j in col_idx),
        )
        row_perm, col_perm = verify_block_equiv(mat, references[m])
        row_tuples, col_tuples = tuple(b.row_tuples[i] for i in rows_idx), tuple(b.col_tuples[j] for j in col_idx)
        yield Block(free, m, row_tuples, col_tuples, mat, row_perm, col_perm)


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
    rows, cols = tuple_array(b.row_tuples, n - 2), tuple_array(b.col_tuples, n)
    row_paired = paired_entries(rows, n)
    row_low, col_low = row_paired & (rows <= n), paired_entries(cols, n) & (cols <= n)
    classes: Dict[int, int] = {}  # free-part bitmask -> class, in first-seen order
    free_masks = np.where(row_paired, 0, 1 << rows).sum(axis=1).tolist()
    cls = np.array([classes.setdefault(f, len(classes)) for f in free_masks], dtype=np.int64)
    # one more class, k_all, takes the columns no row touches; its m = 2n
    # keeps their (unread) ranks inside the binomial table
    k_all = len(classes)
    m = np.array([n - f.bit_count() for f in classes] + [2 * n])
    half = m >> 1
    counts = dict(Counter(m[:k_all].tolist()))
    references = {mm: incidence_matrix(mm) for mm in counts}

    # a column belongs to the class whose rows touch it; an entry of
    # another class in it is a second claimant
    weights = np.fromiter(map(len, b.row_supports), np.int64, count=len(b.row_supports))
    e_col = np.fromiter(chain.from_iterable(b.row_supports), np.int64, count=int(weights.sum()))
    e_row = np.repeat(np.arange(len(cls)), weights)
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
        and (weights == half[cls] + 1).all()
    )
    if fits:
        ren = lows.cumsum(axis=1)

        def ranks(arr, low, k, size):
            # tuple_rank's closed form on the renumbered labels, one position at a time
            out, left = table[m[k], size] - 1, size + 1
            for q in range(arr.shape[1]):
                left = left - low[:, q]
                out -= np.where(low[:, q], table[m[k] - ren[k, arr[:, q]], left], 0)
            return out

        row_rank, col_rank = ranks(rows, row_low, cls, half[cls] - 1), ranks(cols, col_low, owner, half[owner])
        # ... no two columns of a class with one label ...
        width = table[m[:k_all], half[:k_all]]
        seen = np.zeros(int(width.sum()), dtype=bool)
        seen[(np.cumsum(width) - width)[owner[own]] + col_rank[own]] = True
        # ... and each one of B at a one of the reference
        e_m = m[cls[e_row]]
        fits = seen.all() and all(
            ref.bits[row_rank[e_row[e_m == mm]], col_rank[e_col[e_m == mm]]].all() for mm, ref in references.items()
        )
    if not fits:
        for _ in _class_blocks(b, {}):  # raises at the first class that fails
            pass
    uncovered = ~own
    stray = np.flatnonzero(uncovered & col_low.any(axis=1))
    if stray.size:
        raise DecompositionError(f"uncovered column {b.col_tuples[stray[0]]} contains a complete pair")
    zero_cols = tuple(b.col_tuples[j] for j in np.flatnonzero(uncovered).tolist())
    if len(cols) != comb(2 * n, n):
        raise DecompositionError(
            f"{len(cols) - len(zero_cols)} block columns and {len(zero_cols)} zero columns, expected {comb(2 * n, n)} in all"
        )
    return BlockDecomposition(n, zero_cols, references, counts, b)
