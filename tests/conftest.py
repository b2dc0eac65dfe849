"""Shared cached builders so expensive objects are constructed once."""

from functools import lru_cache
from math import comb

from lgplucker import GF, build_plucker_matrix, index_tuples, lagrangian_subspaces, plucker_vector, split_free_pairs


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


def wilson_rank(m, p):
    """Wilson's diagonal form: the GF(p) rank (p = 0 for QQ) of the
    inclusion matrix of (k-1)-subsets against k-subsets of a 2k-set."""
    k = m // 2
    return sum(
        comb(2 * k, i) - (comb(2 * k, i - 1) if i else 0)
        for i in range(k)
        if p == 0 or (k - i) % p
    )


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
