"""Expected answers computed without the lgplucker package.

Everything here uses the standard library only: closed-form formulas
from the literature, direct constructions of the 0/1 matrices from their
definitions, minimal readers for the three file formats, and small exact
eliminations and a Cauchy-Binet identity to check sampled points.

* Point counts: |LG(n, q)| = (1 + q)(1 + q^2)...(1 + q^n).
* Block census: the relation matrix B(n) splits into C(n, m) 2^(n-m)
  copies of the incidence block L(m) for each even 2 <= m <= n, plus
  2^n zero columns. L(m) has the (k-1)-subsets of a 2k-set as rows and
  the k-subsets as columns (k = m/2), incidence by containment.
* Ranks: by Wilson's diagonal form (Europ. J. Combin. 11, 1990), L(m)
  has GF(p) rank sum over i < k with p not dividing k - i of
  C(2k, i) - C(2k, i - 1); over QQ every i counts, which is full row
  rank. The rank of B(n) is the sum over the census.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Entries = Set[Tuple[int, int]]


def lagrangian_count(n: int, q: int) -> int:
    return prod(1 + q**i for i in range(1, n + 1))


def block_label(m: int) -> str:
    return f"L{(m + 2) // 2}"


def census(n: int) -> Dict[int, int]:
    """Copies of L(m) in B(n), keyed by even m."""
    return {m: comb(n, m) * 2 ** (n - m) for m in range(2, n + 1, 2)}


def zero_columns(n: int) -> int:
    return 2**n


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if b >= 0 else 0


def block_rank(m: int, p: int) -> int:
    """Rank of L(m) over GF(p), or over QQ for p = 0."""
    k = m // 2
    return sum(_comb0(2 * k, i) - _comb0(2 * k, i - 1) for i in range(k) if p == 0 or (k - i) % p)


def relation_rank(n: int, p: int) -> int:
    return sum(copies * block_rank(m, p) for m, copies in census(n).items())


def relation_shape(n: int) -> Tuple[int, int]:
    return comb(2 * n, n - 2), comb(2 * n, n)


def relation_entries(n: int) -> Entries:
    """0-based (row, column) ones of B(n), rows and columns in lex order."""
    cols = {t: j for j, t in enumerate(combinations(range(1, 2 * n + 1), n))}
    out = set()
    for i, gamma in enumerate(combinations(range(1, 2 * n + 1), n - 2)):
        for a in range(1, n + 1):
            b = 2 * n + 1 - a
            if a not in gamma and b not in gamma:
                out.add((i, cols[tuple(sorted(gamma + (a, b)))]))
    return out


def incidence_shape(m: int) -> Tuple[int, int]:
    return comb(m, (m - 2) // 2), comb(m, m // 2)


def incidence_entries(m: int) -> Entries:
    """0-based ones of L(m): (m-2)/2-subsets of [1, m] inside m/2-subsets."""
    cols = list(combinations(range(1, m + 1), m // 2))
    out = set()
    for i, small in enumerate(combinations(range(1, m + 1), (m - 2) // 2)):
        for j, big in enumerate(cols):
            if set(small) <= set(big):
                out.add((i, j))
    return out


# --- minimal readers -------------------------------------------------------

def read_coord(text: str) -> Tuple[int, int, Entries]:
    lines = text.split("\n")
    rows, cols, nnz = map(int, lines[0].split())
    entries = {(int(r) - 1, int(c) - 1) for r, c in (ln.split() for ln in lines[1 : 1 + nnz])}
    if len(entries) != nnz:
        raise ValueError("coordinate entry count disagrees with the header")
    return rows, cols, entries


def read_json(text: str) -> Tuple[int, int, Entries]:
    doc = json.loads(text)
    entries = {(r - 1, c - 1) for r, c in doc["entries"]}
    if len(entries) != doc["nnz"]:
        raise ValueError("json entry count disagrees with nnz")
    return doc["rows"], doc["cols"], entries


def read_alist(text: str) -> Tuple[int, int, Entries]:
    lines = text.split("\n")
    cols, rows = map(int, lines[0].split())
    by_col = {(r - 1, j) for j in range(cols) for r in map(int, lines[4 + j].split()) if r}
    by_row = {(i, c - 1) for i in range(rows) for c in map(int, lines[4 + cols + i].split()) if c}
    if by_col != by_row:
        raise ValueError("alist column and row lists disagree")
    col_w = list(map(int, lines[2].split()))
    row_w = list(map(int, lines[3].split()))
    if col_w != weights(by_col, cols, axis=1) or row_w != weights(by_col, rows, axis=0):
        raise ValueError("alist weight lines disagree with the lists")
    return rows, cols, by_col


READERS = {"coord": read_coord, "alist": read_alist, "json": read_json}


def weights(entries: Iterable[Tuple[int, int]], size: int, axis: int) -> List[int]:
    out = [0] * size
    for e in entries:
        out[e[axis]] += 1
    return out


# --- exact linear algebra --------------------------------------------------

def gf2_reduce(basis: Dict[int, int], v: int) -> int:
    """Reduce bitmask v against a GF(2) basis keyed by leading bit."""
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            return v
        v ^= basis[top]
    return 0


def gf2_basis(vectors: Iterable[int]) -> Dict[int, int]:
    basis: Dict[int, int] = {}
    for v in vectors:
        v = gf2_reduce(basis, v)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def fraction_rank(rows: Sequence[Sequence]) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c] / work[rank][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def fraction_det(rows: Sequence[Sequence]) -> Fraction:
    work = [[Fraction(x) for x in row] for row in rows]
    k = len(work)
    det = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if work[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for r in range(c + 1, k):
            if work[r][c]:
                f = work[r][c] / work[c][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[c])]
    return det


def wedge_identity_holds(rows: Sequence[Sequence], coords: Dict[Tuple[int, ...], object], xs: Sequence[int]) -> bool:
    """Cauchy-Binet check that coords are the maximal minors of rows.

    With N the Vandermonde matrix N[k][j] = xs[j]^k, det(rows N^T) equals
    the sum over column sets alpha of minor(alpha) * V(xs over alpha),
    where V is the Vandermonde product. For random xs this is a random
    linear functional of every coordinate at once.
    """
    k, width = len(rows), len(rows[0])
    gram = [[sum(Fraction(r[j]) * xs[j] ** p for j in range(width)) for p in range(k)] for r in rows]
    total = Fraction(0)
    for alpha, value in coords.items():
        vander = 1
        for a, b in combinations(alpha, 2):
            vander *= xs[b - 1] - xs[a - 1]
        total += value * vander
    return total == fraction_det(gram)


def symplectic_pairing(x: Sequence, y: Sequence, n: int):
    """<x, y> with e_i paired to e_(2n+1-i): sum of x_i y_ibar - x_ibar y_i."""
    return sum(x[i] * y[2 * n - 1 - i] - x[2 * n - 1 - i] * y[i] for i in range(n))
