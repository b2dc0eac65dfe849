"""The symplectic pairing, exterior vectors and Lagrangian subspaces.

Basis convention: e_1, ..., e_{2n} with <e_i, e_j> = +1 exactly when
j = 2n - i + 1 and i < j, so index i is paired with 2n - i + 1 and the
form is alternating. Exterior coordinates are taken against sorted index
tuples (the coefficient of e_{a_1} ^ ... ^ e_{a_k} with a_1 < ... < a_k);
a coordinate addressed by an unsorted word is the sorted coordinate times
the parity of the sorting permutation. An exterior vector holds all of
them as one dense array in the canonical order of ``coordinates``.

The contraction map pairs off two wedge factors through the form. Written
against sorted tuples its coefficients carry permutation signs, but they
all become +1 in the "pair-adjacent" coordinate system, where each index
word is rearranged as (free indices ascending, then each complementary
pair (i, 2n-i+1) adjacent, pairs ascending). ``pair_adjacent_sign`` is the
parity of that rearrangement, and ``coordinates`` tabulates it once per
grade; matrix-level code works against these coordinates so the
contraction system keeps 0/1 coefficients.

Points are computed on integers and on index tables built once per size;
Fractions are built only for what is handed out.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import linalg
from .combinatorics import (
    IndexTuple,
    index_tuples,
    join_ranks,
    paired_entries,
    sorting_sign,
    split_free_pairs,
    tuple_array,
)
from .errors import ENUMERATION_CAP, ResourceCapError
from .fields import Field, GF, Scalar, integer_numerators

# points of a cell converted to Python rows at once by lagrangian_subspaces
_CHUNK = 4096


def basis_pairing(i: int, j: int, n: int) -> int:
    """<e_i, e_j>: +1 if j = 2n - i + 1 and i < j, -1 if i > j, else 0."""
    if not (1 <= i <= 2 * n and 1 <= j <= 2 * n):
        raise ValueError(f"indices ({i}, {j}) outside [1, {2 * n}]")
    if i + j != 2 * n + 1:
        return 0
    return 1 if i < j else -1


def pairing(x: Sequence, y: Sequence, n: int, field: Field) -> Scalar:
    """Bilinear extension of the basis pairing to coordinate vectors."""
    if len(x) != 2 * n or len(y) != 2 * n:
        raise ValueError(f"vectors must have length {2 * n}")
    s = field.zero
    for i in range(1, n + 1):
        ibar = 2 * n + 1 - i
        term = field.sub(
            field.mul(field.coerce(x[i - 1]), field.coerce(y[ibar - 1])),
            field.mul(field.coerce(x[ibar - 1]), field.coerce(y[i - 1])),
        )
        s = field.add(s, term)
    return s


class Coordinates(NamedTuple):
    """The exterior coordinates of one grade in canonical order: each index
    tuple, its position, and its pair-adjacent sign as an int64 vector;
    the tuples as the rows of an int64 array, True at each entry of a
    complete pair in them (see ``paired_entries``), and each tuple's
    bitmask, descending (see ``join_ranks``)."""

    tuples: List[IndexTuple]
    position: Dict[IndexTuple, int]
    signs: np.ndarray
    array: np.ndarray
    paired: np.ndarray
    masks: np.ndarray


@lru_cache(maxsize=None)
def coordinates(grade: int, n: int) -> Coordinates:
    """The coordinate table of grade ``grade`` over [1, 2n], built once;
    every dense coordinate array in the package is laid out in its order."""
    tuples = index_tuples(grade, 2 * n)
    arr = tuple_array(tuples, grade)
    # pair_adjacent_sign on every row at once: sort a free index by its own
    # value and a paired one after all of them, by its pair's low end, low
    # before high (x + 2n * low does that); the sign is the parity of the
    # keys' inversions
    key, paired = arr.copy(), paired_entries(arr, n)
    for x, p, k in zip(arr.T, paired.T, key.T):  # a position at a time
        k[p] += 2 * n * np.minimum(x, 2 * n + 1 - x)[p]
    inversions = np.zeros(len(tuples), dtype=np.int64)
    for a in range(grade - 1):
        inversions += (key[:, a, None] > key[:, a + 1 :]).sum(axis=1)
    masks = (1 << (2 * n - arr)).sum(axis=1)
    arr.flags.writeable = paired.flags.writeable = masks.flags.writeable = False
    return Coordinates(tuples, {t: j for j, t in enumerate(tuples)}, 1 - 2 * (inversions % 2), arr, paired, masks)


class ExteriorVector:
    """Exterior tensor of a fixed grade with exact coefficients.

    ``values`` holds every coordinate, zeros included, in the order of
    ``coordinates(grade, n)``: int64 residues in [0, p) over GF(p), an
    object array of Fractions over QQ.
    """

    __slots__ = ("n", "grade", "field", "values")

    def __init__(self, n: int, grade: int, field: Field, coords: Dict[IndexTuple, Scalar] | None = None):
        if not 0 <= grade <= 2 * n:
            raise ValueError(f"grade {grade} outside [0, {2 * n}]")
        self.n = n
        self.grade = grade
        self.field = field
        size = len(coordinates(grade, n).tuples)
        self.values = np.zeros(size, dtype=np.int64) if field.char else np.full(size, field.zero, dtype=object)
        for key, val in (coords or {}).items():
            self.values[self._position(key)] = field.coerce(val)

    @classmethod
    def _reduced(cls, n: int, grade: int, field: Field, values: np.ndarray) -> "ExteriorVector":
        """Wrap an array laid out as ``values`` is, of exact field elements
        (ints over GF(p), reduced here), without checking it entry by entry."""
        w = cls.__new__(cls)
        w.n, w.grade, w.field = n, grade, field
        w.values = values % field.char if field.char else values
        return w

    def _position(self, alpha: IndexTuple) -> int:
        alpha = tuple(alpha)
        j = coordinates(self.grade, self.n).position.get(alpha)
        if j is None:
            raise ValueError(f"{alpha!r} is not a strictly increasing {self.grade}-tuple over [1, {2 * self.n}]")
        return j

    def numerators(self) -> Tuple[np.ndarray, int]:
        """(x, d) with values = x / d and x exact integers: the residues and
        d = 1 over GF(p), an object array of numerators over their least
        common denominator over QQ."""
        if self.field.char:
            return self.values, 1
        nums, d = integer_numerators(self.values.tolist())
        return np.array(nums, dtype=object), d

    @property
    def coords(self) -> Dict[IndexTuple, Scalar]:
        """The nonzero coordinates, keyed by index tuple in canonical order."""
        tuples = coordinates(self.grade, self.n).tuples
        nonzero = np.flatnonzero(self.values)
        return dict(zip([tuples[j] for j in nonzero.tolist()], self.values[nonzero].tolist()))

    @classmethod
    def basis(cls, n: int, field: Field, alpha: IndexTuple) -> "ExteriorVector":
        alpha = tuple(alpha)
        return cls(n, len(alpha), field, {alpha: field.one})

    def coefficient(self, alpha: IndexTuple) -> Scalar:
        """Coordinate at a strictly increasing index tuple; anything else
        raises ValueError (see :meth:`coefficient_word`)."""
        return self.values.item(self._position(alpha))

    def coefficient_word(self, word: Tuple[int, ...]) -> Scalar:
        """Coordinate addressed by a possibly unsorted word, sign tracked."""
        sign = sorting_sign(tuple(word))
        if sign == 0:
            return self.field.zero
        val = self.coefficient(sorted(word))
        return val if sign > 0 else self.field.neg(val)

    def is_zero(self) -> bool:
        return not self.values.any()

    def _compatible(self, other: "ExteriorVector") -> None:
        if (self.n, self.grade, self.field) != (other.n, other.grade, other.field):
            raise ValueError("incompatible exterior vectors")

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._compatible(other)
        return ExteriorVector._reduced(self.n, self.grade, self.field, self.values + other.values)

    def __sub__(self, other: "ExteriorVector") -> "ExteriorVector":
        return self + (-other)

    def __neg__(self) -> "ExteriorVector":
        return self.scaled(self.field.neg(self.field.one))

    def scaled(self, s: Scalar) -> "ExteriorVector":
        return ExteriorVector._reduced(self.n, self.grade, self.field, self.values * self.field.coerce(s))

    def __rmul__(self, s) -> "ExteriorVector":
        return self.scaled(s)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorVector)
            and (self.n, self.grade, self.field) == (other.n, other.grade, other.field)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {v}" for k, v in sorted(self.coords.items()))
        return f"ExteriorVector(n={self.n}, grade={self.grade}, {{{terms}}})"


class LaplaceTable(NamedTuple):
    """The Laplace expansion of every (j + 1)-minor along its last row.

    ``tuples`` are the index tuples of length j + 1 over [1, m] in
    canonical order. Row r of ``column`` and ``previous`` lists, for each
    position pos of ``tuples[r]``, the 0-based column of its entry there
    and the canonical position of the j-tuple left when it is removed.
    The term at pos carries the sign ``signs[pos]`` = (-1)^(j + pos).
    """

    tuples: List[IndexTuple]
    column: np.ndarray
    previous: np.ndarray
    signs: np.ndarray


@lru_cache(maxsize=None)
def laplace_table(j: int, m: int) -> LaplaceTable:
    """Index table taking the j-minors of the first j rows to the
    (j + 1)-minors of the first j + 1 rows, in ambient dimension m.
    ``previous`` is found by searching each tuple's mask less one entry's
    bit among the masks of the j-tuples, ascending (see ``join_ranks``)."""
    tuples = index_tuples(j + 1, m)
    t = tuple_array(tuples, j + 1)
    bits = 1 << (m - t)
    ascending = (1 << (m - tuple_array(index_tuples(j, m), j))).sum(axis=1)[::-1]
    left = np.searchsorted(ascending, bits.sum(axis=1, keepdims=True) - bits)
    places = np.arange(j + 1)
    return LaplaceTable(tuples, t - 1, comb(m, j) - 1 - left, 1 - 2 * ((j + places) % 2))


def wedge(vectors: Sequence[Sequence], n: int, field: Field) -> ExteriorVector:
    """Wedge of coordinate vectors; coefficient at alpha is the alpha-minor.

    The minors are built one row at a time by Laplace expansion along the
    last row: with w_j the j-minors of the first j rows,
    w_{j+1}[T] = sum over pos of (-1)^(j + pos) v_{j+1}[T_pos] w_j[T - T_pos].
    Each step is one gather and one signed product: the terms of every
    minor times the table's signs. Over GF(p) this runs on int64
    residues, each product below p^2 < 2^62 reduced before the signed
    sum of at most 2n terms, so it is exact for every p < MAX_PRIME.
    Over QQ the same gathers run on Python ints: each row
    is scaled by the lcm of its denominators, and each minor is divided by
    the product of the scales at the end. No step of the recurrence
    divides. Linearly dependent inputs simply give the zero vector.
    """
    vecs = [[field.coerce(v) for v in row] for row in vectors]
    k = len(vecs)
    if k > 2 * n:
        raise ValueError(f"cannot wedge {k} vectors in ambient dimension {2 * n}")
    for row in vecs:
        if len(row) != 2 * n:
            raise ValueError(f"vectors must have length {2 * n}")
    return _wedge(vecs, n, field)


def _wedge(vecs: Sequence[Sequence[Scalar]], n: int, field: Field) -> ExteriorVector:
    """:func:`wedge` of at most 2n exact rows of length 2n, unchecked."""
    k = len(vecs)
    if k == 0:
        return ExteriorVector(n, 0, field, {(): field.one})
    p = field.char
    if p:
        v = np.array(vecs, dtype=np.int64)
    else:
        rows, scales = zip(*map(integer_numerators, vecs))
        v = np.array(rows, dtype=object)
        scale = prod(scales)
    w = v[0]
    for j in range(1, k):
        table = laplace_table(j, 2 * n)
        terms = v[j][table.column] * w[table.previous]
        if p:
            terms %= p
        w = terms @ table.signs
        if p:
            w %= p
    if not p:
        w = np.array([Fraction(x, scale) for x in w.tolist()], dtype=object)
    return ExteriorVector._reduced(n, k, field, w)


def contraction_terms(n: int) -> np.ndarray:
    """The terms of :func:`contract` in grade n, one row per (n - 2)-tuple
    gamma and one column per complementary pair (i, ibar): the position of
    gamma + {i, ibar} among the n-tuples where the pair is disjoint from
    gamma, -1 elsewhere (see ``join_ranks``). gamma + {i, ibar} grows in
    lexicographic order with i, so each row's positions increase."""
    i = np.arange(1, n + 1)  # the mask of {i, ibar} sets bits 2n - i and i - 1
    return join_ranks(coordinates(n - 2, n).masks, coordinates(n, n).masks, (1 << (2 * n - i)) | (1 << (i - 1)))


@lru_cache(maxsize=None)
def contraction_table(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of :func:`contract` in grade n, read off its definition,
    as arrays (source, sign, starts): output coordinate g sums sign[t]
    times input coordinate source[t] over t from starts[g] to starts[g + 1].
    gamma is sorted and i < ibar, so the word gamma + (i, ibar) sorts with
    the parity of the entries of gamma above i and those above ibar."""
    terms, g, i = contraction_terms(n), coordinates(n - 2, n).array[:, :, None], np.arange(1, n + 1)
    above = (g > i).sum(axis=1) + (g > 2 * n + 1 - i).sum(axis=1)
    counts = (terms >= 0).sum(axis=1)
    return terms[terms >= 0], 1 - 2 * (above[terms >= 0] % 2), np.cumsum(counts) - counts


def contract(w: ExteriorVector) -> ExteriorVector:
    """Contraction of a grade-n tensor down to grade n - 2.

    The output coordinate at gamma sums, over the complementary pairs
    disjoint from gamma, the input coordinate addressed by the word
    gamma + (i, 2n - i + 1); the sorting parity of that word reproduces
    exactly the (-1)^(r + s - 1) position sign of the term-by-term
    definition, so this agrees with ``contract_vectors`` on wedges.
    One gather and segmented sum over :func:`contraction_table`, over QQ
    on integer numerators over one common denominator.
    """
    n = w.n
    if w.grade != n or n < 2:
        raise ValueError(f"contraction needs grade n = {n} >= 2, got grade {w.grade}")
    source, signs, starts = contraction_table(n)
    x, d = w.numerators()
    # every (n - 2)-tuple misses at least two pairs, so no segment is empty
    out = np.add.reduceat(x[source] * signs, starts)
    if not w.field.char:
        out = np.array([Fraction(v, d) for v in out.tolist()], dtype=object)
    return ExteriorVector._reduced(n, n - 2, w.field, out)


def contract_vectors(vectors: Sequence[Sequence], n: int, field: Field) -> ExteriorVector:
    """Contraction of v_1 ^ ... ^ v_n evaluated literally, term by term.

    Independent of :func:`contract`: sums <v_r, v_s> (-1)^(r+s-1) times the
    wedge of the remaining n - 2 vectors over all positions r < s.
    """
    vecs = [[field.coerce(v) for v in row] for row in vectors]
    if len(vecs) != n:
        raise ValueError(f"expected {n} vectors, got {len(vecs)}")
    out = ExteriorVector(n, n - 2, field)
    for r in range(n):
        for s in range(r + 1, n):
            c = pairing(vecs[r], vecs[s], n, field)
            if not c:
                continue
            if (r + s) % 2 == 0:
                c = field.neg(c)
            rest = [v for t, v in enumerate(vecs) if t not in (r, s)]
            out = out + wedge(rest, n, field).scaled(c)
    return out


def pair_adjacent_sign(alpha: IndexTuple, n: int) -> int:
    """Parity of rearranging sorted alpha into pair-adjacent order.

    Pair-adjacent order lists the free indices ascending, then each
    complete complementary pair as (low, high) adjacent, pairs ascending.
    """
    split = split_free_pairs(alpha, n)
    word = list(split.free)
    for p in split.pairs:
        word.extend(p)
    return sorting_sign(tuple(word))


def coordinate_vector(w: ExteriorVector) -> List[Scalar]:
    """Plain coordinates of w over the canonical order of its index set."""
    return w.values.tolist()


def arranged_coordinates(w: ExteriorVector) -> List[Scalar]:
    """Coordinates of w in the pair-adjacent system (sign-twisted)."""
    p = w.field.char
    twisted = w.values * coordinates(w.grade, w.n).signs
    return (twisted % p if p else twisted).tolist()


class SubspaceBasis:
    """Rows of a k-dimensional subspace basis, checked independent."""

    __slots__ = ("n", "field", "rows")

    def __init__(self, n: int, field: Field, rows: Sequence[Sequence]):
        coerced = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        for row in coerced:
            if len(row) != 2 * n:
                raise ValueError(f"rows must have length {2 * n}")
        if linalg.rank(linalg.ExactMatrix.from_rows(coerced, field)) != len(coerced):
            raise ValueError("rows are linearly dependent")
        self.n = n
        self.field = field
        self.rows = coerced

    @classmethod
    def _reduced(cls, n: int, field: Field, rows: Tuple[Tuple[Scalar, ...], ...]) -> "SubspaceBasis":
        """Wrap exact rows of length 2n already known to be independent, unchecked."""
        basis = cls.__new__(cls)
        basis.n, basis.field, basis.rows = n, field, rows
        return basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def gram(self) -> List[List[Scalar]]:
        return [[pairing(a, b, self.n, self.field) for b in self.rows] for a in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and (self.n, self.field) == (other.n, other.field)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(n={self.n}, dim={self.dim}, field={self.field!r})"


def is_isotropic(basis: SubspaceBasis) -> bool:
    """Whether all pairwise pairings of the basis rows vanish: the Gram
    matrix is g - g^T, where g pairs the first half of each row with the
    reversed second half of each; over QQ on integer multiples of the rows."""
    p, n = basis.field.char, basis.n
    rows = basis.rows if p else [integer_numerators(row)[0] for row in basis.rows]
    x = np.array(rows, dtype=object).reshape(len(rows), 2 * n)
    g = x[:, :n] @ x[:, ::-1][:, :n].T
    return not ((g - g.T) % p if p else g - g.T).any()


def plucker_vector(basis: SubspaceBasis) -> ExteriorVector:
    """Wedge of the basis rows: the subspace's exterior coordinates."""
    return _wedge(basis.rows, basis.n, basis.field)


def random_lagrangian(n: int, field: Field, seed: int) -> SubspaceBasis:
    """Random Lagrangian subspace by greedy isotropic completion.

    Repeatedly draws a random vector inside the symplectic perpendicular
    of the span so far, keeping it when independent. Deterministic for a
    fixed seed; always terminates because an isotropic subspace of
    dimension k < n has a strictly larger perpendicular. The
    perpendicular's basis (one vector per free column of the reduced
    constraints) and the independence test come from
    ``linalg.int_echelon`` on integer multiples of the rows: the reduced
    constraints with the new one appended, whose reduced form is carried
    to the next draw when the row is kept. n is checked before any draw.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    p = field.char
    width, last = 2 * n, 2 * n - 1
    # row r constrains y through sum_c <r, e_c> y_c = 0, where <r, e_c> is
    # r[cbar] for c >= n and -r[cbar] below, cbar = 2n - 1 - c; a row is
    # independent of the others exactly when its constraint is
    reduced: List[List[int]] = []
    pivots: List[int] = []
    rows: List[Tuple[Scalar, ...]] = []
    while len(rows) < n:
        free = [c for c in range(width) if c not in pivots]
        coeffs = [rng.randrange(p) if p else rng.randint(-9, 9) for _ in free]
        if not any(coeffs):
            continue
        # the draw times d, with d the lcm of the pivots (1 mod p)
        d = lcm(*(row[c] for row, c in zip(reduced, pivots)))
        cand = [0] * width
        for c, x in zip(free, coeffs):
            cand[c] = x * d
        for row, c in zip(reduced, pivots):
            cand[c] = -(d // row[c]) * sum(x * row[f] for f, x in zip(free, coeffs))
        constraint = [cand[last - c] if c >= n else -cand[last - c] for c in range(width)]
        if p:
            cand, constraint = [x % p for x in cand], [x % p for x in constraint]
        grown = linalg.int_echelon(reduced + [constraint], p)
        if len(grown[1]) > len(pivots):
            reduced, pivots = grown
            rows.append(tuple(cand) if p else tuple(Fraction(x, d) for x in cand))
    lag = SubspaceBasis._reduced(n, field, tuple(rows))
    if not is_isotropic(lag):
        raise ArithmeticError(f"random_lagrangian(n={n}, seed={seed}) built a basis that is not isotropic")
    return lag


def lagrangian_count(n: int, q: int) -> int:
    """Number of Lagrangian subspaces over GF(q): product of (1 + q^i)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    GF(q)  # raises for a q that is not a prime below MAX_PRIME
    return prod(1 + q**i for i in range(1, n + 1))


def lagrangian_cells(n: int, q: int) -> Iterator[np.ndarray]:
    """The Schubert cells of the Lagrangian subspaces over GF(q), each
    as one int64 array of shape (q^d, n, 2n): the unique reduced row
    echelon basis of every point in the cell, d its dimension.

    Cells come in lexicographic order of their pivot column sets. Each
    is an affine space written down directly, so nothing is solved.
    In 0-based columns c pairs with cbar = 2n - 1 - c. Only the 2^n pivot
    sets P = (p_0 < ... < p_{n-1}) holding no pair {c, cbar} occur, and
    their non-pivot columns are the pbar_s, so row r is
    e_{p_r} + sum_s X[r, s] e_{pbar_s}. The rows are isotropic exactly
    when eps_s X[r, s] is symmetric in (r, s), where
    eps_s = <e_{p_s}, e_{pbar_s}> is +1 for p_s < n and -1 otherwise.
    Echelon form forces X[r, s] = 0 unless pbar_s > p_r, that is
    p_r + p_s < 2n - 1, a condition symmetric in r and s. So the cell has
    one free value y per pair r <= s with p_r + p_s < 2n - 1, setting
    X[r, s] = eps_s y and X[s, r] = eps_r y. Within a cell the free values
    run through GF(q)^d in lexicographic order, the pairs ordered by r
    and then s, and the first pair varying slowest. n, q and the cap are
    checked, in that order, before the first cell is built.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    GF(q)  # raises for a q that is not a prime below MAX_PRIME
    total = 1
    for i in range(1, n + 1):  # lagrangian_count, stopped once past the cap
        total *= 1 + q**i
        if total > ENUMERATION_CAP:
            raise ResourceCapError(
                f"the subspaces for n = {n}, q = {q} exceed the enumeration cap {ENUMERATION_CAP}; "
                "use random_lagrangian for sampling instead"
            )
    last = 2 * n - 1
    for pivots in combinations(range(2 * n), n):
        if any(last - c in pivots for c in pivots):
            continue
        eps = [1 if c < n else -1 for c in pivots]
        free = [(r, s) for r in range(n) for s in range(r, n) if pivots[r] + pivots[s] < last]
        cell = np.zeros((q ** len(free), n, 2 * n), dtype=np.int64)
        cell[:, range(n), pivots] = 1
        index = np.arange(len(cell))
        for k, (r, s) in enumerate(free):
            y = index // q ** (len(free) - 1 - k) % q
            cell[:, r, last - pivots[s]] = eps[s] * y % q
            cell[:, s, last - pivots[r]] = eps[r] * y % q
        yield cell


def lagrangian_subspaces(n: int, q: int) -> Iterator[SubspaceBasis]:
    """All Lagrangian subspaces over GF(q), one canonical basis each: the
    rows of :func:`lagrangian_cells`, converted ``_CHUNK`` points at a
    time and wrapped unchecked, being reduced by construction."""
    for cell in lagrangian_cells(n, q):
        field = GF(q)  # once lagrangian_cells has checked n and q
        for start in range(0, len(cell), _CHUNK):
            for rows in cell[start : start + _CHUNK].tolist():
                yield SubspaceBasis._reduced(n, field, tuple(map(tuple, rows)))


class PluckerRelationTable(NamedTuple):
    """The quadratic relations of the grade-n embedding, precomputed.

    Relation r is the sum over its terms of sign * x[first] * x[second],
    x the ``values`` of a grade-n vector (see :func:`coordinates`).
    Its terms are ``first[starts[r]:starts[r + 1]]`` and so on, and
    ``labels[r]`` is the (alpha, beta) pair it came from.
    """

    labels: Tuple[Tuple[IndexTuple, IndexTuple], ...]
    first: np.ndarray
    second: np.ndarray
    signs: np.ndarray
    starts: np.ndarray


@lru_cache(maxsize=None)
def plucker_relation_table(n: int) -> PluckerRelationTable:
    """The relation of every pair of tuples alpha (length n - 1) and beta
    (length n + 1): the alternating sum over the entries beta_i of beta of
    -p(alpha + beta_i) * p(beta minus beta_i), with p(alpha + beta_i) the
    sorted coordinate times the sorting parity of the word. Terms sharing
    a pair of columns are merged, and relations that cancel identically
    are left out.
    """
    columns = coordinates(n, n).position
    labels, first, second, signs, starts = [], [], [], [], []
    for alpha in index_tuples(n - 1, 2 * n):
        for beta in index_tuples(n + 1, 2 * n):
            merged: Dict[Tuple[int, int], int] = {}
            for pos, i in enumerate(beta):
                if i in alpha:
                    continue
                # sorting alpha + (i,) moves i past every larger entry of alpha
                sign = (-1) ** (sum(1 for a in alpha if a > i) + pos + 1)
                a = columns[tuple(sorted(alpha + (i,)))]
                b = columns[beta[:pos] + beta[pos + 1 :]]
                key = (min(a, b), max(a, b))
                merged[key] = merged.get(key, 0) + sign
            terms = [(key, c) for key, c in sorted(merged.items()) if c]
            if not terms:
                continue
            labels.append((alpha, beta))
            starts.append(len(signs))
            for (a, b), c in terms:
                first.append(a)
                second.append(b)
                signs.append(c)
    return PluckerRelationTable(
        tuple(labels),
        np.array(first, dtype=np.intp),
        np.array(second, dtype=np.intp),
        np.array(signs, dtype=np.int64),
        np.array(starts, dtype=np.intp),
    )


def _relation_values(w: ExteriorVector) -> np.ndarray:
    """Value at w of every relation of its table, in table order.

    Over GF(p) the coordinates are int64 residues: each product of two is
    below p^2 < 2^62 and is reduced before its sign is applied, so the
    sums stay exact for every p < MAX_PRIME. Over QQ the same gathers and
    sums run on an object array of Fractions, in exact Python arithmetic.
    """
    if w.grade != w.n:
        raise ValueError(f"relations apply to grade {w.n}, got {w.grade}")
    table = plucker_relation_table(w.n)
    p = w.field.char
    products = w.values[table.first] * w.values[table.second]
    if p:
        products %= p
    values = np.add.reduceat(products * table.signs, table.starts)
    return values % p if p else values


def satisfies_plucker_relations(w: ExteriorVector) -> bool:
    """Whether w satisfies every quadratic relation of the grade-n embedding
    (see :func:`plucker_relation_table`)."""
    return not _relation_values(w).any()


def failing_plucker_relation(w: ExteriorVector) -> Tuple[IndexTuple, IndexTuple] | None:
    """The (alpha, beta) pair of the first relation w violates, or None."""
    bad = np.flatnonzero(_relation_values(w))
    return plucker_relation_table(w.n).labels[bad[0]] if bad.size else None
