import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lgplucker import (
    ExactMatrix,
    ExteriorVector,
    GF,
    QQ,
    LinearFunctional,
    ResourceCapError,
    arranged_coordinates,
    build_plucker_matrix,
    contract,
    coordinate_vector,
    index_tuples,
    nullspace,
    pair_adjacent_sign,
    plucker_vector,
    random_lagrangian,
    rank,
    row_space_equal,
    split_free_pairs,
    vanishing_space,
    wedge,
)
from lgplucker import frlc
from lgplucker.combinatorics import tuple_array, validate_index_tuple
from lgplucker.symplectic import contraction_table, coordinates
from conftest import binomials, bmatrix, enumerated_points


def contraction_functional(gamma, n, field=QQ):
    """The relation attached to gamma, one pair at a time: coefficient 1 at
    gamma union each disjoint complementary pair; the oracle of B's rows."""
    gamma = tuple(gamma)
    validate_index_tuple(gamma, 2 * n, length=n - 2)
    support = set(gamma)
    coeffs = {}
    for i in range(1, n + 1):
        ibar = 2 * n + 1 - i
        if i in support or ibar in support:
            continue
        coeffs[tuple(sorted(gamma + (i, ibar)))] = field.one
    return LinearFunctional(n, field, coeffs)


def row_weight_law(gamma, n):
    """Predicted weight of row gamma: n minus its pair count minus its free count."""
    split = split_free_pairs(gamma, n)
    return n - len(split.pairs) - len(split.free)


class TestContractionFunctional:
    def test_n2_two_terms(self):
        h = contraction_functional((), 2)
        assert h.coeffs == {(1, 4): 1, (2, 3): 1}

    def test_n3_excludes_touched_pair(self):
        h = contraction_functional((1,), 3)
        assert set(h.coeffs) == {(1, 2, 5), (1, 3, 4)}
        assert all(v == 1 for v in h.coeffs.values())

    def test_n4_complete_pair_row(self):
        h = contraction_functional((1, 8), 4)
        assert len(h.coeffs) == 3
        assert set(h.coeffs) == {
            tuple(sorted((1, 8, 2, 7))),
            tuple(sorted((1, 8, 3, 6))),
            tuple(sorted((1, 8, 4, 5))),
        }

    def test_term_count_law(self):
        for n in (3, 4, 5):
            b = bmatrix(n)
            for gamma in b.row_tuples:
                h = contraction_functional(gamma, n)
                split = split_free_pairs(gamma, n)
                assert len(h.coeffs) == n - len(split.pairs) - len(split.free)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            contraction_functional((1, 2), 3)

    def test_vanishes_on_known_point(self):
        h = contraction_functional((), 2)
        w = ExteriorVector(2, 2, QQ, {(1, 2): 1, (1, 4): 1, (2, 3): -1, (3, 4): 1})
        x = dict(zip(index_tuples(2, 4), arranged_coordinates(w)))
        assert sum(c * x[t] for t, c in h.coeffs.items()) == 0


class TestBuild:
    def test_n2_shape(self):
        b = bmatrix(2)
        assert b.shape == (1, 6)
        assert b.nnz == 2

    def test_n3_row_weights(self):
        b = bmatrix(3)
        assert b.shape == (6, 20)
        assert b.nnz == 12
        assert np.diff(b.indptr).tolist() == [2] * 6

    def test_n4_weight_census(self):
        b = bmatrix(4)
        assert b.shape == (28, 70)
        assert b.nnz == 60
        weights = sorted(np.diff(b.indptr).tolist())
        assert weights == [2] * 24 + [3] * 4

    def test_row_weight_law(self):
        for n in (3, 4, 5, 6):
            b = bmatrix(n)
            assert np.diff(b.indptr).tolist() == [row_weight_law(gamma, n) for gamma in b.row_tuples]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_pairwise_distinct(self, n):
        b = bmatrix(n)
        assert len(set(b.row_supports)) == b.shape[0]

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_match_functional_supports(self, n):
        b = bmatrix(n)
        for i, gamma in enumerate(b.row_tuples):
            from_row = {b.col_tuples[j] for j in b.row_supports[i]}
            assert from_row == set(contraction_functional(gamma, n).coeffs)

    def test_entry_lookup(self):
        b = bmatrix(2)
        assert b.bits[0, b.col_tuples.index((1, 4))] == 1
        assert b.bits[0, b.col_tuples.index((1, 2))] == 0

    def test_entry_invariant(self):
        # entry is 1 exactly when the column support contains the row
        # support and the two extra indices are complementary
        n = 3
        b = bmatrix(n)
        bits = b.bits
        for i, gamma in enumerate(b.row_tuples):
            for j, beta in enumerate(b.col_tuples):
                extra = set(beta) - set(gamma)
                expected = int(
                    set(gamma) <= set(beta)
                    and len(extra) == 2
                    and sum(extra) == 2 * n + 1
                )
                assert bits[i, j] == expected

    def test_caps(self):
        with pytest.raises(ResourceCapError):
            build_plucker_matrix(8)
        with pytest.raises(ValueError):
            build_plucker_matrix(1)


def closed_form_csr(n):
    """B(n)'s CSR arrays by the closed form of tuple_rank (see
    conftest.binomials): in gamma + {i, ibar} an entry g of gamma at
    position q moves to q + [g > i] + [g > ibar], i to #{g < i} and ibar
    to #{g < ibar} + 1."""
    g = tuple_array(index_tuples(n - 2, 2 * n), n - 2)
    c = binomials(2 * n + 1)
    ranks = np.empty((len(g), n), dtype=np.int64)
    disjoint = np.empty((len(g), n), dtype=bool)
    for i in range(1, n + 1):
        ibar = 2 * n + 1 - i
        ranks[:, i - 1] = comb(2 * n, n) - 1 - (
            c[2 * n - g, n - np.arange(n - 2) - (g > i) - (g > ibar)].sum(axis=1)
            + c[2 * n - i, n - (g < i).sum(axis=1)]
            + c[i - 1, n - 1 - (g < ibar).sum(axis=1)]
        )
        disjoint[:, i - 1] = ((g != i) & (g != ibar)).all(axis=1)
    return np.concatenate(([0], np.cumsum(disjoint.sum(axis=1)))), ranks[disjoint]


class TestRanksByMask:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_csr_matches_closed_form(self, n, monkeypatch):
        monkeypatch.setattr(frlc, "BUILD_CAP", 9)  # n = 8, 9 past the cap
        b = build_plucker_matrix(n)
        indptr, indices = closed_form_csr(n)
        assert b.indptr.tolist() == indptr.tolist()
        assert b.indices.tolist() == indices.tolist()
        assert b.shape == (comb(2 * n, n - 2), comb(2 * n, n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_contraction_table_is_b_with_signs(self, n):
        # the signs are the twist of both sides (see PlueckerMatrix.apply)
        b = bmatrix(n)
        source, signs, starts = contraction_table(n)
        assert source.tolist() == b.indices.tolist()
        twist = coordinates(n, n).signs[b.indices] * coordinates(n - 2, n).signs[b.row_ids()]
        assert signs.tolist() == twist.tolist()
        assert starts.tolist() == b.indptr[:-1].tolist()


class TestApply:
    def test_single_incidence(self):
        b = bmatrix(2)
        assert b.apply(ExteriorVector.basis(2, QQ, (1, 4))) == [1]

    def test_zero_column(self):
        b = bmatrix(2)
        assert b.apply(ExteriorVector.basis(2, QQ, (1, 2))) == [0]

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_contraction_coordinates(self, n):
        b = bmatrix(n)
        rng = random.Random(n)
        for _ in range(100):
            coords = {}
            for t in rng.sample(b.col_tuples, 7):
                coords[t] = rng.randint(-5, 5)
            w = ExteriorVector(n, n, QQ, coords)
            assert b.apply(w) == coordinate_vector(contract(w))


def literal_apply(b, w):
    """B applied row by row to the pair-adjacent coordinates of w, with
    the row's own sign, in field arithmetic."""
    field = w.field
    x = arranged_coordinates(w)
    out = []
    for gamma, support in zip(b.row_tuples, b.row_supports):
        total = sum((x[j] for j in support), field.zero)
        out.append(field.coerce(total if pair_adjacent_sign(gamma, b.n) > 0 else -total))
    return out


class TestPaddedApply:
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("field", [QQ, GF(3), GF(2147483647)])
    def test_matches_row_by_row_sums(self, n, field):
        b = bmatrix(n)
        rng = random.Random(n)
        for _ in range(5):
            keys = rng.sample(b.col_tuples, min(12, b.cols))
            coords = {t: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5])) for t in keys}
            w = ExteriorVector(n, n, field, coords)
            got = b.apply(w)
            assert got == literal_apply(b, w) == coordinate_vector(contract(w))
            assert all(type(x) is (Fraction if field == QQ else int) for x in got)

    def test_rational_lagrangian_with_fractions(self):
        w = plucker_vector(random_lagrangian(5, QQ, seed=3))
        assert any(x.denominator > 1 for x in w.values.tolist())
        assert bmatrix(5).apply(w) == [0] * bmatrix(5).rows


class TestAnnihilation:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
    def test_enumerated_points(self, n, q):
        b = bmatrix(n)
        for w in enumerated_points(n, q):
            assert not any(b.apply(w))

    def test_sampled_rational_lagrangians(self):
        b = bmatrix(4)
        for seed in range(3):
            w = plucker_vector(random_lagrangian(4, QQ, seed))
            assert not any(b.apply(w))


class TestVanishingSpace:
    def test_n2_q2_single_relation(self):
        field = GF(2)
        basis = vanishing_space(enumerated_points(2, 2), field)
        assert len(basis) == 1
        assert basis[0].coeffs == {(1, 4): 1, (2, 3): 1}

    def test_n3_q2_dimension_matches_rank(self):
        field = GF(2)
        basis = vanishing_space(enumerated_points(3, 2), field)
        assert len(basis) == rank(bmatrix(3).to_exact(field))
        assert len(basis) == 6

    def test_single_point_annihilator(self):
        basis = vanishing_space([ExteriorVector.basis(2, QQ, (1, 2))], QQ)
        assert len(basis) == 5

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
    def test_row_space_equals_relation_matrix(self, n, q):
        field = GF(q)
        basis = vanishing_space(enumerated_points(n, q), field)
        cols = index_tuples(n, 2 * n)
        m = ExactMatrix.from_rows([[h.coeffs.get(t, 0) for t in cols] for h in basis], field)
        assert row_space_equal(m, bmatrix(n).to_exact(field))

    def test_full_rank_annihilator_uniqueness(self):
        # any full-rank matrix annihilating the points is a row-operation
        # image of the relation matrix: same row space
        field = GF(3)
        b = bmatrix(3).to_exact(field)
        rng = random.Random(4)
        rows = [dict(r) for r in b.rows]
        rng.shuffle(rows)
        rows[0] = {c: field.mul(2, v) for c, v in rows[0].items()}
        for c, v in rows[1].items():
            acc = field.add(rows[0].get(c, 0), v)
            if acc:
                rows[0][c] = acc
            else:
                rows[0].pop(c, None)
        h = ExactMatrix(b.nrows, b.ncols, field, rows)
        assert rank(h) == rank(b) == 6
        for w in enumerated_points(3, 3):
            x = arranged_coordinates(w)
            assert not any(sum(v * x[c] for c, v in r.items()) % 3 for r in rows)
        assert row_space_equal(h, b)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            vanishing_space([], QQ)

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
    def test_int64_path_matches_exact_matrix_oracle(self, n, q):
        field = GF(q)
        points = enumerated_points(n, q)
        m = ExactMatrix.from_rows([arranged_coordinates(w) for w in points], field)
        cols = index_tuples(n, 2 * n)
        want = [{cols[j]: v for j, v in enumerate(vec) if v} for vec in nullspace(m)]
        assert [h.coeffs for h in vanishing_space(points, field)] == want


class TestScalarTypes:
    """Every scalar handed out is a Python int over GF(p) and a Fraction
    over QQ, never a numpy scalar: the CLI writes its JSON with
    ``default=str``, which would print a numpy scalar as a string."""

    @pytest.mark.parametrize("field", [GF(3), GF(2147483647), QQ])
    def test_no_numpy_scalars(self, field):
        n = 3
        scalar = int if field.char else Fraction
        w = plucker_vector(random_lagrangian(n, field, seed=1))
        v = w + ExteriorVector.basis(n, field, (1, 2, 5))
        outputs = [
            [v.coefficient(t) for t in index_tuples(n, 2 * n)],
            list(v.coords.values()),
            coordinate_vector(v),
            arranged_coordinates(v),
            bmatrix(n).apply(v),
            [c for h in vanishing_space([w, v], field) for c in h.coeffs.values()],
            list(contraction_functional((1,), n, field).coeffs.values()),
        ]
        for values in outputs:
            assert values and all(type(x) is scalar for x in values), values

    def test_rational_wedge_gives_fractions(self):
        # the QQ wedge runs on integers; every coordinate it returns is a Fraction
        rows = [[Fraction(1, 3), 0, -2, Fraction(5, 10**12)], [0, Fraction(-7, 2), 1, 4]]
        points = [wedge(rows, 2, QQ), wedge(rows[:1], 2, QQ), plucker_vector(random_lagrangian(5, QQ, seed=3))]
        for w in points:
            values = list(w.coords.values()) + coordinate_vector(w) + arranged_coordinates(w)
            assert values and all(type(x) is Fraction for x in values), values
