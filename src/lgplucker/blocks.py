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
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Tuple

import numpy as np

from . import linalg
from .combinatorics import IndexTuple, index_tuples
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


@dataclass
class IncidenceMatrix:
    """Dense 0/1 matrix with row and column labels (pair-index tuples)."""

    m: int
    bits: np.ndarray
    row_labels: Tuple[PairTuple, ...]
    col_labels: Tuple[PairTuple, ...]

    @property
    def shape(self) -> Tuple[int, int]:
        return tuple(self.bits.shape)

    @property
    def label(self) -> str:
        return f"L{r_value(self.m)}"

    def row_weights(self) -> List[int]:
        return [int(x) for x in self.bits.sum(axis=1)]

    def column_weights(self) -> List[int]:
        return [int(x) for x in self.bits.sum(axis=0)]

    def to_exact(self, field: Field) -> linalg.ExactMatrix:
        rows = [{int(j): field.one for j in np.flatnonzero(row)} for row in self.bits]
        return linalg.ExactMatrix(*self.shape, field, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncidenceMatrix)
            and self.m == other.m
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and np.array_equal(self.bits, other.bits)
        )


def incidence_matrix(m: int) -> IncidenceMatrix:
    """The atlas member L(m) for even m >= 2, labelled by its subsets."""
    if m < 2 or m % 2:
        raise ValueError(f"need an even m >= 2, got {m}")
    rows = tuple(index_tuples((m - 2) // 2, m))
    cols = tuple(index_tuples(m // 2, m))
    col_index = {beta: j for j, beta in enumerate(cols)}
    bits = np.zeros((len(rows), len(cols)), dtype=np.int8)
    for i, alpha in enumerate(rows):
        bits[i, [col_index[tuple(sorted(alpha + (x,)))] for x in range(1, m + 1) if x not in alpha]] = 1
    return IncidenceMatrix(m, bits, rows, cols)


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
    nrows = mat.bits.shape[0]
    if nrows > 1:
        gram = mat.bits.astype(np.int64) @ mat.bits.astype(np.int64).T
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
    differ = block.bits != reference.bits.take(row_perm, axis=0).take(col_perm, axis=1)
    if differ.any():
        i, j = np.argwhere(differ)[0]
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
    blocks were checked against.
    """

    n: int
    blocks: List[Block]
    zero_columns: Tuple[IndexTuple, ...]
    references: Dict[int, IncidenceMatrix]

    def census(self) -> Dict[str, int]:
        """Multiplicity of each atlas label, largest first."""
        out: Dict[str, int] = {}
        for blk in sorted(self.blocks, key=lambda b: -b.m):
            out[blk.label] = out.get(blk.label, 0) + 1
        return out

    def rank(self, field: Field) -> int:
        """Rank of the decomposed matrix over field.

        The matrix is the direct sum of its blocks and zero columns, and
        each block is its atlas member L(m) up to row and column
        permutations, so its rank is the sum over m of the number of
        blocks with that m times rank(L(m)). Only the distinct atlas
        members are eliminated.
        """
        counts = Counter(blk.m for blk in self.blocks)
        return sum(c * linalg.rank(self.references[m].to_exact(field)) for m, c in counts.items())


def _split(t: IndexTuple, n: int) -> Tuple[IndexTuple, PairTuple]:
    """Free part of the canonical tuple t and the low ends of its complete pairs."""
    support = set(t)
    top = 2 * n + 1
    return (
        tuple([x for x in t if top - x not in support]),
        tuple([x for x in t if x <= n and top - x in support]),
    )


def decompose(b: PlueckerMatrix) -> BlockDecomposition:
    """Split the relation matrix into its incidence blocks and verify each.

    Rows are grouped by the free part of their tuple; a class with free
    part of size t restricts to the columns it touches as a copy of the
    atlas member for m = n - t, checked bit for bit through the canonical
    pair renumbering. No column may be touched by two classes, every
    column left over must contain no complete pair, and the block widths
    plus the zero columns must add up to C(2n, n): B is then the direct
    sum of its blocks and the zero columns.
    """
    n = b.n
    classes: Dict[IndexTuple, List[int]] = {}
    row_labels: List[PairTuple] = []
    for i, t in enumerate(b.row_tuples):
        free, lows = _split(t, n)
        classes.setdefault(free, []).append(i)
        row_labels.append(lows)
    col_labels = [_split(t, n)[1] for t in b.col_tuples]
    owner: List[IndexTuple | None] = [None] * len(b.col_tuples)
    references: Dict[int, IncidenceMatrix] = {}
    blocks: List[Block] = []
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
        width = len(col_idx)
        bits = np.zeros(len(rows_idx) * width, dtype=np.int8)
        bits[[k * width + col_pos[j] for k, i in enumerate(rows_idx) for j in b.row_supports[i]]] = 1
        mat = IncidenceMatrix(
            m,
            bits.reshape(len(rows_idx), width),
            tuple(row_labels[i] for i in rows_idx),
            tuple(col_labels[j] for j in col_idx),
        )
        row_perm, col_perm = verify_block_equiv(mat, references[m])
        blocks.append(
            Block(
                free=free,
                m=m,
                row_tuples=tuple(b.row_tuples[i] for i in rows_idx),
                col_tuples=tuple(b.col_tuples[j] for j in col_idx),
                matrix=mat,
                row_perm=row_perm,
                col_perm=col_perm,
            )
        )
    zero_cols = []
    for j, t in enumerate(b.col_tuples):
        if owner[j] is not None:
            continue
        if col_labels[j]:
            raise DecompositionError(f"uncovered column {t} contains a complete pair")
        zero_cols.append(t)
    covered = sum(len(blk.col_tuples) for blk in blocks)
    if covered + len(zero_cols) != comb(2 * n, n):
        raise DecompositionError(
            f"{covered} block columns and {len(zero_cols)} zero columns, expected {comb(2 * n, n)} in all"
        )
    return BlockDecomposition(n=n, blocks=blocks, zero_columns=tuple(zero_cols), references=references)
