"""Strictly increasing index tuples over [1, m] and their pair structure.

Index tuples are plain Python tuples of 1-based integers, always strictly
increasing, so two tuples are equal exactly when their supports are equal.
The canonical enumeration order is lexicographic everywhere, which makes
every matrix layout in the package reproducible byte for byte. The empty
tuple is a legal index tuple: it indexes grade-0 tensors and the single
relation row in ambient dimension four.

In ambient dimension 2n the index i is complementary to 2n - i + 1; a
"pair" is such a couple, and the pair/free split of a tuple separates the
complete pairs inside its support from the remaining free indices.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

IndexTuple = Tuple[int, ...]


def validate_index_tuple(t: IndexTuple, bound: int, length: int | None = None) -> None:
    """Raise ValueError unless t is strictly increasing inside [1, bound]."""
    if length is not None and len(t) != length:
        raise ValueError(f"expected a tuple of length {length}, got {t!r}")
    for prev, cur in zip((0,) + tuple(t), t):
        if cur <= prev:
            raise ValueError(f"entries must be strictly increasing, got {t!r}")
    if t and t[-1] > bound:
        raise ValueError(f"entries must lie in [1, {bound}], got {t!r}")


def index_tuples(length: int, bound: int) -> List[IndexTuple]:
    """All strictly increasing tuples of the given length over [1, bound], lex order."""
    if length < 0 or bound < 1:
        raise ValueError(f"need length >= 0 and bound >= 1, got ({length}, {bound})")
    if length > bound:
        raise ValueError(f"length {length} exceeds bound {bound}")
    return list(combinations(range(1, bound + 1), length))


def tuple_rank(t: IndexTuple, bound: int) -> int:
    """Position of t in the lexicographic order of index_tuples(len(t), bound)."""
    t = tuple(t)
    validate_index_tuple(t, bound)
    # the tuples after t: for each position q, those that agree with t
    # before q and exceed t[q] there
    return comb(bound, len(t)) - 1 - sum(comb(bound - c, len(t) - q) for q, c in enumerate(t))


def tuple_array(tuples: Sequence[IndexTuple], length: int) -> np.ndarray:
    """Index tuples, all of the given length, as the rows of an int64 array."""
    flat = np.fromiter(chain.from_iterable(tuples), np.int64, count=len(tuples) * length)
    return flat.reshape(len(tuples), length)


def join_ranks(short: np.ndarray, long: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Rank by bitmask: the position of each short index tuple joined with
    each set in bits, among the long tuples.

    The mask of an index tuple over [1, m] is the sum of 2^(m - x) over
    its entries x; among the tuples of one length, lexicographic order is
    descending mask order. short and long are the masks of all tuples over
    [1, m] of two lengths in that order, and each of bits the mask of a
    set as large as the lengths differ by. Entry (s, b) is the position of
    short[s] | bits[b] among the long tuples where the two are disjoint,
    and -1 elsewhere. Joining a disjoint set adds its mask, which keeps
    mask order, so the short tuples disjoint from a set, in order, go to
    the long tuples holding it, in order: nothing is searched."""
    bits = bits[:, None]
    free = (short & bits) == 0
    out = np.full(free.shape, -1, dtype=np.int64)
    out[free] = np.nonzero((long & bits) == bits)[1]
    return out.T


def sorting_sign(word: Tuple[int, ...]) -> int:
    """Parity of the permutation sorting the word; 0 if it has a repeat."""
    if len(set(word)) != len(word):
        return 0
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


class Pair(NamedTuple):
    """A complementary index pair (i, 2n - i + 1); low + high = 2n + 1."""

    low: int
    high: int


def pair_of(i: int, n: int) -> Pair:
    """The unique complementary pair containing i, in ambient dimension 2n."""
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} outside [1, {2 * n}]")
    j = 2 * n + 1 - i
    return Pair(min(i, j), max(i, j))


class FreePairSplit(NamedTuple):
    """Pair/free decomposition of an index tuple."""

    free: IndexTuple
    pairs: Tuple[Pair, ...]

    def rebuild(self) -> IndexTuple:
        """The sorted index tuple this split came from."""
        flat = list(self.free)
        for p in self.pairs:
            flat.extend(p)
        return tuple(sorted(flat))


def split_free_pairs(t: IndexTuple, n: int) -> FreePairSplit:
    """Split t into the complete pairs inside its support and the free rest."""
    t = tuple(t)
    validate_index_tuple(t, 2 * n)
    support = set(t)
    pairs = tuple(sorted({pair_of(i, n) for i in t if (2 * n + 1 - i) in support}))
    paired = {x for p in pairs for x in p}
    free = tuple(x for x in t if x not in paired)
    return FreePairSplit(free, pairs)


def paired_entries(tuples: np.ndarray, n: int) -> np.ndarray:
    """split_free_pairs over the rows of an index-tuple array: True at each
    entry whose complement 2n + 1 - x lies in the same row."""
    rows = np.arange(len(tuples))
    member = np.zeros((len(tuples), 2 * n + 2), dtype=bool)
    out = np.empty(tuples.shape, dtype=bool)
    for col in tuples.T:  # a position at a time, to keep temporaries small
        member[rows, col] = True
    for q, col in enumerate(tuples.T):
        out[:, q] = member[rows, 2 * n + 1 - col]
    return out

