"""Shared cached builders so expensive objects are constructed once."""

from functools import lru_cache
from math import comb

import numpy as np

from lgplucker import GF, ExactMatrix, build_plucker_matrix, index_tuples, lagrangian_subspaces, plucker_vector, split_free_pairs
from lgplucker.linalg import _int_rows, int_echelon


def binomials(size):
    """C(a, b) for 0 <= a, b < size as an int64 table: the oracles' closed
    form of tuple_rank on index-tuple arrays, which ranks t among the
    tuples of its length over [1, m] as
    C(m, len t) - 1 - sum over q of C(m - t[q], len t - q)."""
    return np.array([[comb(a, b) for b in range(size)] for a in range(size)], dtype=np.int64)


def tuple_masks(tuples, bound):
    """The bitmask of each of the index tuples over [1, bound]: the sum of
    2^(bound - x) over its entries x."""
    return np.array([sum(1 << (bound - x) for x in t) for t in tuples], dtype=np.int64)


@lru_cache(maxsize=None)
def bmatrix(n):
    return build_plucker_matrix(n)


@lru_cache(maxsize=None)
def enumerated_points(n, q):
    """Plucker vectors of every rational Lagrangian over GF(q)."""
    return tuple(plucker_vector(lag) for lag in lagrangian_subspaces(n, q))


@lru_cache(maxsize=None)
def enumerated_bases(n, q):
    return tuple(lagrangian_subspaces(n, q))


def row_partition(n):
    """Group the (n-2)-tuples over [1, 2n] by the free part of their split.

    The classes partition the whole index set; within one class the free
    part is fixed and the complete pairs vary over the pairs disjoint from
    it. Class keys appear in first-seen (hence lexicographic) order.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    classes = {}
    for t in index_tuples(n - 2, 2 * n):
        classes.setdefault(split_free_pairs(t, n).free, []).append(t)
    return classes


def independent_rows(m):
    """Indices of the rows of the ExactMatrix m outside the span of the
    rows before them: the pivot columns of ``int_echelon`` on the integer
    rows of the transpose, over any field. The oracle of
    ``linalg.independent_rows_mod``."""
    cols = [{} for _ in range(m.ncols)]
    for i, r in enumerate(m.rows):
        for c, v in r.items():
            cols[c][i] = v
    return int_echelon(_int_rows(ExactMatrix(m.ncols, m.nrows, m.field, cols)), m.field.char)[1]
