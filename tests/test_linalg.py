import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lgplucker import (
    ExactMatrix,
    ExteriorVector,
    GF,
    QQ,
    contract,
    decompose,
    embedding_rank,
    index_tuples,
    nullspace,
    pair_adjacent_sign,
    rank,
    rank_report,
    row_space_equal,
)
from lgplucker.linalg import (
    _FOLD_ROWS,
    _matmul_mod,
    _row_space_mod,
    _rref_mod,
    independent_rows,
    int_echelon,
    nullspace_mod,
)
from conftest import bmatrix


def identity(k, field):
    return ExactMatrix.from_rows(
        [[field.one if i == j else field.zero for j in range(k)] for i in range(k)], field
    )


class TestRank:
    def test_identity(self):
        assert rank(identity(5, QQ)) == 5
        assert rank(identity(5, GF(7))) == 5

    def test_b2_over_f2(self):
        assert rank(bmatrix(2).to_exact(GF(2))) == 1

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = [[rng.randrange(5) for _ in range(6)] for _ in range(4)]
            m = ExactMatrix.from_rows(rows, GF(5))
            assert rank(m) == rank(m.transpose())
        for _ in range(50):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)]
            m = ExactMatrix.from_rows(rows, QQ)
            assert rank(m) == rank(m.transpose())


class TestNullspace:
    def test_zero_matrix(self):
        assert len(nullspace(ExactMatrix.zeros(2, 3, QQ))) == 3

    def test_b2_over_qq(self):
        assert len(nullspace(bmatrix(2).to_exact(QQ))) == 5

    def test_b3_over_qq(self):
        assert len(nullspace(bmatrix(3).to_exact(QQ))) == 14

    def test_vectors_annihilate_over_gf(self):
        rng = random.Random(5)
        rows = [[rng.randrange(3) for _ in range(7)] for _ in range(4)]
        m = ExactMatrix.from_rows(rows, GF(3))
        basis = nullspace(m)
        assert len(basis) == 7 - rank(m)
        for x in basis:
            assert not any(m.mat_vec(x))

    def test_largest_prime_verification_stays_exact(self):
        # random residues mod p = 2^31 - 1: each dot product sums eleven
        # products of up to 2^62, so a plain int64 a @ x wraps and would
        # reject the correct basis
        p = 2147483647
        rng = random.Random(3)
        rows = [[rng.randrange(p) for _ in range(20)] for _ in range(10)]
        a = np.array(rows, dtype=np.int64)
        basis = nullspace_mod(a, p)
        assert a.tolist() == rows  # eliminated on a copy
        assert basis.shape == (10, 20)
        assert ((np.array(rows, dtype=np.int64) @ basis.T) % p).any()
        for x in basis.tolist():
            assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in rows)

    @pytest.mark.parametrize("entry", [-1, 5, 10])
    def test_entries_outside_the_residues_rejected(self, entry):
        # a multiple of p would be taken as a pivot, and large entries
        # overflow the int64 row updates
        with pytest.raises(ValueError, match="residues"):
            nullspace_mod(np.array([[1, entry], [2, 3]], dtype=np.int64), 5)

    def test_tall_matrix_eliminated_in_slices(self):
        # more rows meet each pivot column than one slice of the row update
        # holds; the row space, and so the basis, is that of the three rows
        rng = random.Random(7)
        base = [[rng.randrange(5) for _ in range(6)] for _ in range(3)]
        coefs = [[rng.randrange(5) for _ in range(3)] for _ in range(9000)]
        rows = [[sum(c * b[j] for c, b in zip(coef, base)) % 5 for j in range(6)] for coef in coefs]
        basis = nullspace_mod(np.array(rows, dtype=np.int64), 5)
        assert basis.shape == (3, 6)
        assert basis.tolist() == nullspace_mod(np.array(base, dtype=np.int64), 5).tolist()

    def test_kernel_is_contraction_kernel(self):
        # nullspace vectors, read as pair-adjacent coordinates, have zero
        # contraction; dimensions already agree, so the spans coincide
        for n in (3, 4):
            b = bmatrix(n)
            cols = index_tuples(n, 2 * n)
            for vec in nullspace(b.to_exact(QQ)):
                coords = {}
                for t, v in zip(cols, vec):
                    if v:
                        coords[t] = v if pair_adjacent_sign(t, n) > 0 else -v
                w = ExteriorVector(n, n, QQ, coords)
                assert contract(w).is_zero()


class TestRowSpace:
    def test_invariant_under_row_operations(self):
        m = bmatrix(3).to_exact(QQ)
        rows = [dict(r) for r in m.rows]
        rows.reverse()
        rows[0] = {c: 7 * v for c, v in rows[0].items()}
        shuffled = ExactMatrix(m.nrows, m.ncols, QQ, rows)
        assert row_space_equal(m, shuffled)

    def test_rank_drop_detected(self):
        m = bmatrix(3).to_exact(QQ)
        rows = [dict(r) for r in m.rows]
        rows[2] = {}
        assert not row_space_equal(m, ExactMatrix(m.nrows, m.ncols, QQ, rows))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            row_space_equal(identity(2, QQ), identity(3, QQ))


class TestIndependentRows:
    def test_literal(self):
        rows = [[1, 2], [0, 0], [2, 4], [0, 1], [1, 3]]
        assert independent_rows(ExactMatrix.from_rows(rows, QQ)) == [0, 3]
        assert independent_rows(ExactMatrix.zeros(0, 3, GF(5))) == []

    @pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
    def test_matches_greedy_rank_oracle(self, field):
        rng = random.Random(5)
        for _ in range(30):
            ncols = rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 9))]
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
            picked, kept = [], []
            for i, row in enumerate(rows):
                if rank(ExactMatrix.from_rows(kept + [row], field)) > len(kept):
                    picked.append(i)
                    kept.append(row)
            assert independent_rows(ExactMatrix.from_rows(rows, field)) == picked


class TestRankReport:
    def test_n4_rationals(self):
        rep = rank_report(4, 0)
        assert rep.rank == 28 and rep.surjective
        assert rep.embedding_rank == 70 - 28

    def test_n4_char2_deficient(self):
        rep = rank_report(4, 2)
        assert not rep.surjective
        assert rep.rank == 27

    def test_n4_char3_full(self):
        rep = rank_report(4, 3)
        assert rep.rank == 28 and rep.surjective

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    def test_characteristic_criterion(self, n, p):
        # rank_report raises if the full-rank verdict ever disagrees with
        # the characteristic threshold, so surviving is the assertion
        rep = rank_report(n, p)
        assert rep.surjective == (p == 0 or p >= (n + 2) // 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_specialization_inequality(self, n, p):
        b = bmatrix(n)
        assert rank(b.to_exact(GF(p))) <= rank(b.to_exact(QQ))


FULL_ELIMINATION_N7 = {0: 2002, 2: 1652, 3: 1988, 5: 2002, 7: 2002}


class TestStructuralRank:
    """The rank summed over the blocks against elimination of the whole of B."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    def test_matches_full_elimination(self, n, p):
        b = bmatrix(n)
        field = QQ if p == 0 else GF(p)
        full = rank(b.to_exact(field))
        assert decompose(b).rank(field) == full
        assert rank_report(n, p).rank == full
        assert embedding_rank(n, field) == b.shape[1] - full
        if n == 7:
            assert full == FULL_ELIMINATION_N7[p]


def test_embedding_rank_values():
    assert embedding_rank(2, QQ) == 5
    assert embedding_rank(3, QQ) == 14
    assert embedding_rank(4, QQ) == 42


def single_pass_nullspace(a, p):
    """nullspace_mod as it was: one _rref_mod over all of a, then one basis
    vector per non-pivot column, entry by entry."""
    rref, pivots = _rref_mod(a.copy(), p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = -int(rref[r, f]) % p
    return rref[: len(pivots)], pivots, basis


def tall_matrix(rng, p, nrows, ncols, rank_at):
    """Random residues whose row space grows as the rows go on: the rows
    up to rank_at[k][0] lie in a span of rank_at[k][1] random rows."""
    span = [[rng.randrange(p) for _ in range(ncols)] for _ in range(max(r for _, r in rank_at))]
    rows = []
    for i in range(nrows):
        k = next(r for upto, r in rank_at if i < upto)
        coefs = [rng.randrange(p) for _ in range(k)]
        rows.append([sum(c * b[j] for c, b in zip(coefs, span)) % p for j in range(ncols)])
    return np.array(rows, dtype=np.int64)


class TestFoldedNullspace:
    @pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
    @pytest.mark.parametrize("shape,rank_at", [
        ((700, 12), [(700, 5)]),                        # rank-deficient throughout
        ((900, 10), [(300, 3), (600, 6), (900, 10)]),   # new pivots in later blocks
        ((600, 9), [(257, 2), (600, 9)]),               # one row past the first block
        ((40, 8), [(40, 8)]),                           # less than one block
    ])
    def test_equals_single_pass_elimination(self, p, shape, rank_at):
        rng = random.Random(p + shape[0])
        a = tall_matrix(rng, p, *shape, rank_at)
        kept = a.copy()
        rref, pivots, basis = single_pass_nullspace(a, p)
        got_rref, got_pivots = _row_space_mod(a, p)
        assert got_pivots == pivots
        assert got_rref.tolist() == rref.tolist()
        assert nullspace_mod(a, p).tolist() == basis.tolist()
        assert np.array_equal(a, kept)

    def test_no_rows_and_zero_rows(self):
        assert nullspace_mod(np.zeros((0, 3), dtype=np.int64), 5).tolist() == np.eye(3, dtype=np.int64).tolist()
        assert nullspace_mod(np.zeros((600, 3), dtype=np.int64), 5).tolist() == np.eye(3, dtype=np.int64).tolist()


class TestMatmulMod:
    @pytest.mark.parametrize("p", [2, 65537, 2147483647])
    def test_matches_python_ints(self, p):
        rng = random.Random(p)
        x = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(37)] for _ in range(6)]
        y = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(4)] for _ in range(37)]
        want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)] for row in x]
        got = _matmul_mod(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), p)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_inner_blocks_of_two_to_the_fifteen(self):
        # every product is (p - 1)^2, about 2^62: summed without the split
        # and the blocks, two of them would already wrap
        p = 2147483647
        k = (1 << 15) + 3
        x = np.full((2, k), p - 1, dtype=np.int64)
        y = np.full((k, 1), p - 1, dtype=np.int64)
        assert _matmul_mod(x, y, p).tolist() == [[k * (p - 1) ** 2 % p]] * 2


class TestIntEchelon:
    def test_over_the_integers(self):
        # pivots, zeros in the other pivot columns, each row divided by its
        # gcd, and the same row space
        rows = [[2, 4, 6, 1], [1, 2, 3, 5], [3, 6, 9, 6]]
        reduced, pivots = int_echelon(rows, 0)
        assert pivots == [0, 3]
        assert reduced == [[1, 2, 3, 0], [0, 0, 0, 1]]
        assert rank(ExactMatrix.from_rows(reduced + rows, QQ)) == 2

    @pytest.mark.parametrize("p", [0, 2, 7, 2147483647])
    def test_rank_and_row_space_against_elimination(self, p):
        field = QQ if p == 0 else GF(p)
        rng = random.Random(p)
        for _ in range(30):
            k, width = rng.randint(1, 6), rng.randint(1, 8)
            base = [[rng.randint(-5, 5) % p if p else rng.randint(-5, 5) for _ in range(width)] for _ in range(3)]
            rows = [[sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(width)] for _ in range(k)]
            rows = [[x % p for x in r] for r in rows] if p else rows
            reduced, pivots = int_echelon(rows, p)
            assert len(pivots) == rank(ExactMatrix.from_rows(rows, field)) == len(reduced)
            assert all(r[c] and not any(r[:c]) for r, c in zip(reduced, pivots))
            assert all(not r[c] for i, r in enumerate(reduced) for c in pivots if c != pivots[i])
            if reduced:
                assert row_space_equal(ExactMatrix.from_rows(reduced, field), ExactMatrix.from_rows(rows, field))


def field_echelon(rows, field):
    """Textbook Gaussian elimination on Field scalars, independent of
    int_echelon: the first row that reaches each column is the pivot,
    scaled to 1 and taken out of the rows below. Returns the echelon rows
    and their pivot columns."""
    rows = [[field.coerce(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        hit = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[k], rows[hit] = rows[hit], rows[k]
        inv = field.inv(rows[k][c])
        rows[k] = [field.mul(inv, x) for x in rows[k]]
        for i in range(k + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def field_rref(rows, field):
    """field_echelon with each pivot column then cleared from the rows above."""
    echelon, pivots = field_echelon(rows, field)
    for k in reversed(range(len(pivots))):
        for j in range(k):
            f = echelon[j][pivots[k]]
            if f:
                echelon[j] = [field.sub(x, field.mul(f, y)) for x, y in zip(echelon[j], echelon[k])]
    return echelon, pivots


def back_substitution_nullspace(rows, width, field):
    """One nullspace vector per non-pivot column of field_echelon, in
    column order: 1 there, 0 at the other non-pivot columns, and the
    pivot entries by back substitution from the last pivot row up."""
    echelon, pivots = field_echelon(rows, field)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        x = [field.zero] * width
        x[free] = field.one
        for row, c in reversed(list(zip(echelon, pivots))):
            s = field.zero
            for j in range(c + 1, width):
                s = field.add(s, field.mul(row[j], x[j]))
            x[c] = field.neg(s)
        basis.append(x)
    return basis


def awkward_rows(rng, nrows, ncols):
    """Small integers with zero rows, repeated rows and integer
    combinations of earlier rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.55 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice([0, 0, 1, -1, rng.randint(-4, 4)]) for _ in range(ncols)])
    return rows


class TestFieldOracle:
    """rank, independent_rows, nullspace and int_echelon against Gaussian
    elimination written on Field operations alone."""

    @pytest.mark.parametrize("p", [0, 2, 5, 2147483647])
    def test_against_field_elimination(self, p):
        field = QQ if p == 0 else GF(p)
        rng = random.Random(100 + p)
        for _ in range(60):
            ncols = rng.randint(1, 8)
            rows = awkward_rows(rng, rng.randint(0, 10), ncols)
            # over QQ each row is divided by its own denominator: the
            # exact matrix holds Fractions, int_echelon the integers
            scales = [rng.randint(1, 4) if p == 0 else 1 for _ in rows]
            exact = [[field.coerce(Fraction(x, s)) for x in r] for r, s in zip(rows, scales)]
            m = ExactMatrix.from_rows(exact, field) if rows else ExactMatrix.zeros(0, ncols, field)

            want_rows, want_pivots = field_rref(exact, field)
            assert rank(m) == len(want_pivots)
            picked, kept = [], []
            for i, row in enumerate(exact):
                if len(field_echelon(kept + [row], field)[1]) > len(kept):
                    picked.append(i)
                    kept.append(row)
            assert independent_rows(m) == picked
            assert nullspace(m) == back_substitution_nullspace(exact, ncols, field)

            reduced, pivots = int_echelon(rows, p)
            assert pivots == want_pivots
            if p:
                assert reduced == want_rows
            else:
                assert all(r[c] > 0 and gcd(*r) == 1 for r, c in zip(reduced, pivots))
                assert [[Fraction(x, r[c]) for x in r] for r, c in zip(reduced, pivots)] == want_rows
            sparse = [{c: x for c, x in enumerate(r) if x} for r in rows]
            assert int_echelon(sparse, p) == ([{c: x for c, x in enumerate(r) if x} for r in reduced], pivots)


class TestKernelsAgree:
    @pytest.mark.parametrize("p", [2, 3, 2147483647])
    @pytest.mark.parametrize("shape,rank_at", [
        ((2 * _FOLD_ROWS + 50, 9), [(_FOLD_ROWS + 1, 2), (2 * _FOLD_ROWS + 50, 9)]),  # new pivots past a block
        ((_FOLD_ROWS + 44, 12), [(_FOLD_ROWS + 44, 5)]),  # rank-deficient throughout
        ((40, 8), [(40, 8)]),  # less than one block
        ((5, 6), [(5, 0)]),  # all zero
    ])
    def test_int_echelon_is_the_folded_rref(self, p, shape, rank_at):
        # the reduced row echelon form mod p is unique, so the two kernels
        # must agree row for row
        a = tall_matrix(random.Random(p + shape[1]), p, *shape, rank_at)
        basis, pivots = _row_space_mod(a, p)
        assert int_echelon(a.tolist(), p) == (basis.tolist(), pivots)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relation_nullspace_pinned_to_back_substitution(self, n):
        b = bmatrix(n)
        want = back_substitution_nullspace(b.bits.tolist(), b.shape[1], QQ)
        assert nullspace(b.to_exact(QQ)) == want
