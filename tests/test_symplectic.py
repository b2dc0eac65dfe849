import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lgplucker import (
    ExactMatrix,
    ExteriorVector,
    GF,
    QQ,
    ResourceCapError,
    SubspaceBasis,
    basis_pairing,
    contract,
    contract_vectors,
    index_tuples,
    is_isotropic,
    lagrangian_count,
    lagrangian_subspaces,
    nullspace,
    pair_adjacent_sign,
    pairing,
    plucker_vector,
    random_lagrangian,
    rank,
    satisfies_plucker_relations,
    sorting_sign,
    tuple_rank,
    wedge,
)
from lgplucker.combinatorics import tuple_array, validate_index_tuple
from lgplucker import symplectic
from lgplucker.symplectic import coordinates, failing_plucker_relation, laplace_table, plucker_relation_table
from conftest import binomials, enumerated_bases, enumerated_points


def gram_matrix(n):
    """The 2n x 2n Gram matrix of the basis pairing."""
    return [[basis_pairing(i, j, n) for j in range(1, 2 * n + 1)] for i in range(1, 2 * n + 1)]


def unit(i, n):
    v = [0] * (2 * n)
    v[i - 1] = 1
    return v


class TestBasisPairing:
    def test_complementary_low_high(self):
        assert basis_pairing(1, 4, 2) == 1

    def test_antisymmetry(self):
        assert basis_pairing(4, 1, 2) == -1

    def test_non_complementary(self):
        assert basis_pairing(1, 2, 2) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_pairing(0, 1, 2)
        with pytest.raises(ValueError):
            basis_pairing(1, 5, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
    def test_gram_nondegenerate(self, n, field):
        g = ExactMatrix.from_rows(gram_matrix(n), field)
        assert rank(g) == 2 * n


class TestVectorPairing:
    def test_matches_basis_pairing(self):
        assert pairing(unit(1, 2), unit(4, 2), 2, QQ) == 1

    def test_alternating(self):
        rng = random.Random(1)
        for _ in range(50):
            x = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
            assert pairing(x, x, 3, QQ) == 0

    def test_bilinear_expansion(self):
        x = [1, 1, 0, 0]
        y = [0, 0, 1, 1]
        assert pairing(x, y, 2, QQ) == 2

    @given(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
           st.lists(st.integers(-9, 9), min_size=8, max_size=8))
    def test_antisymmetry_property(self, x, y):
        assert pairing(x, y, 4, QQ) == -pairing(y, x, 4, QQ)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairing([1, 0], [0, 1, 0, 0], 2, QQ)


class TestWedge:
    def test_unit_minor(self):
        w = wedge([unit(1, 2), unit(2, 2)], 2, QQ)
        assert w.coords == {(1, 2): 1}

    def test_alternating_sign(self):
        w = wedge([unit(2, 2), unit(1, 2)], 2, QQ)
        assert w.coords == {(1, 2): -1}

    def test_hand_checked_minors(self):
        w = wedge([[1, 0, 1, 0], [0, 1, 0, 1]], 2, QQ)
        assert w.coefficient((1, 2)) == 1
        assert w.coefficient((1, 4)) == 1
        assert w.coefficient((2, 3)) == -1
        assert w.coefficient((3, 4)) == 1
        assert w.coefficient((1, 3)) == 0
        assert w.coefficient((2, 4)) == 0

    def test_dependent_rows_vanish(self):
        w = wedge([[1, 2, 3, 4], [2, 4, 6, 8]], 2, QQ)
        assert w.is_zero()

    def test_no_rows_give_the_unit(self):
        assert wedge([], 2, GF(3)).coords == {(): 1}
        assert wedge([], 2, QQ) == ExteriorVector(2, 0, QQ, {(): 1})

    def test_too_many_or_wrong_length_rows_rejected(self):
        with pytest.raises(ValueError):
            wedge([unit(i, 2) for i in range(1, 5)] + [[1, 1, 1, 1]], 2, QQ)
        with pytest.raises(ValueError):
            wedge([[1, 0, 0]], 2, QQ)


def _det(rows, field):
    """Determinant by exact Gaussian elimination with division."""
    k = len(rows)
    rows = [list(r) for r in rows]
    det = field.one
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c]), -1)
        if piv < 0:
            return field.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = field.neg(det)
        det = field.mul(det, rows[c][c])
        inv = field.inv(rows[c][c])
        for r in range(c + 1, k):
            if rows[r][c]:
                f = field.mul(rows[r][c], inv)
                rows[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[r], rows[c])]
    return det


def literal_wedge(vectors, n, field):
    """The wedge read off its definition: every alpha-minor by elimination."""
    vecs = [[field.coerce(v) for v in row] for row in vectors]
    coords = {}
    for alpha in index_tuples(len(vecs), 2 * n):
        d = _det([[vec[a - 1] for a in alpha] for vec in vecs], field)
        if d:
            coords[alpha] = d
    return ExteriorVector(n, len(vecs), field, coords)


class TestWedgeAgainstLiteral:
    def test_table_built_once_per_size(self):
        table = laplace_table(2, 6)
        assert table is laplace_table(2, 6)
        assert table.column.shape == table.previous.shape == (20, 3)
        assert table.tuples == index_tuples(3, 6)

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
    def test_enumerated_points(self, n, q):
        field = GF(q)
        for lag in enumerated_bases(n, q):
            assert plucker_vector(lag) == literal_wedge(lag.rows, n, field)

    @pytest.mark.parametrize("n", [5, 6])
    def test_rational_lagrangians_with_fractions(self, n):
        lag = random_lagrangian(n, QQ, seed=n)
        assert any(v.denominator != 1 for row in lag.rows for v in row)
        assert plucker_vector(lag) == literal_wedge(lag.rows, n, QQ)

    def test_largest_prime(self):
        field = GF(2147483647)
        p = field.char
        rng = random.Random(8)
        for k in range(7):
            rows = [[rng.randrange(p) for _ in range(6)] for _ in range(k)]
            assert wedge(rows, 3, field) == literal_wedge(rows, 3, field)
        # a last row of p - 1 at every odd column: the three products of
        # the full minor's expansion, each below 2^62, sum past 2^63 about
        # one draw in six unless each is reduced first
        for _ in range(30):
            rows = [[rng.randrange(p) for _ in range(6)] for _ in range(5)] + [[p - 1, 0] * 3]
            assert wedge(rows, 3, field) == literal_wedge(rows, 3, field)

    @given(st.data())
    def test_random_matrices(self, data):
        n = data.draw(st.integers(1, 3))
        field = data.draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
        k = data.draw(st.integers(0, 2 * n))
        entry = st.integers(-4, 4)
        rows = [data.draw(st.lists(entry, min_size=2 * n, max_size=2 * n)) for _ in range(k)]
        if k >= 2 and data.draw(st.booleans()):
            # make the last row a combination of the others
            coeffs = data.draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
            rows[-1] = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(2 * n)]
        assert wedge(rows, n, field) == literal_wedge(rows, n, field)

    @given(st.data())
    def test_rational_matrices(self, data):
        n = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, 2 * n))
        big = st.integers(-(10**12), 10**12)
        entry = st.one_of(
            st.just(0),
            st.integers(-9, 9),
            st.builds(Fraction, big, st.integers(1, 10**12)),
            st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 7, 10**12])),
        )
        rows = []
        for _ in range(k):
            kind = data.draw(st.sampled_from(["drawn", "zero", "negated"]))
            if kind == "zero":
                rows.append([0] * (2 * n))
            else:
                row = data.draw(st.lists(entry, min_size=2 * n, max_size=2 * n))
                rows.append([-Fraction(x) for x in row] if kind == "negated" else row)
        if k >= 2 and data.draw(st.booleans()):
            # make the last row a rational combination of the others
            coeffs = data.draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
            rows[-1] = [sum(Fraction(c) * r[i] for c, r in zip(coeffs, rows)) for i in range(2 * n)]
        w = wedge(rows, n, QQ)
        assert w == literal_wedge(rows, n, QQ)
        assert all(type(x) is Fraction for x in w.coords.values())
        assert all(type(x) is Fraction for x in w.values.tolist())


# sha256 of repr(plucker_vector(random_lagrangian(n, QQ, seed)))
RATIONAL_POINT_SHA256 = {
    (5, 0): "1027470387d36c1bf1a29b3134043a9dd5fe902dc76907b53355ff8345061b6b",
    (5, 1): "54f5d369868182fdd4d1b5d0906b22495b78302af34a8a3fbeb0e137c1be154c",
    (5, 2): "2b020f0fae62aee60f8afe1a8ba44d64a04c5f0270f48a97c168bf11cad3390f",
    (5, 3): "bfa3edf82e4cd16a7be6eb09f8cc0e580b3fc745099054ce29df81ffe8327ae7",
    (5, 4): "8bae091498133c63e156f74378b77fb2c8cbcd192beb9a8d2e93ecf5332c1657",
    (5, 5): "8c00145690c9ffba997b800007e092b206fb80c079b1f83fcd75ed3cd2b9c995",
    (6, 0): "d848eaf7f17a63996d4ffdf6566583937025f0f732f06e99b51c4a057886b119",
    (6, 1): "6d0bef9f143abd500af07119a605d72a03a8c6fd9dff9f51958eedbfc3fcb271",
    (6, 2): "853ee7ba7260f9bcf5c0ad35fee1a704900a9d0a874e929faa74439ee8fe5cf7",
    (6, 3): "cf57ad1dda29e933b36ad0ae8f742512bdaf9ea9140f42c301cd330c38b5e3c2",
    (6, 4): "f1bf23d4d84e2ff16b930417b1d78cf9a090a855c0bf5bc2dfff85f72d2fd7f6",
    (6, 5): "67951c33b37c1f78a801dbf453f5470927f2b648a2031f3a23a48255702f590e",
}


@pytest.mark.parametrize("n,seed", sorted(RATIONAL_POINT_SHA256))
def test_rational_point_pinned(n, seed):
    w = plucker_vector(random_lagrangian(n, QQ, seed))
    assert hashlib.sha256(repr(w).encode("utf-8")).hexdigest() == RATIONAL_POINT_SHA256[n, seed]


class TestContract:
    def test_single_pair(self):
        w = ExteriorVector.basis(2, QQ, (1, 4))
        assert contract(w).coords == {(): 1}

    def test_no_pair_in_support(self):
        w = ExteriorVector.basis(2, QQ, (1, 2))
        assert contract(w).is_zero()

    def test_known_kernel_point(self):
        w = ExteriorVector(2, 2, QQ, {(1, 2): 1, (1, 4): 1, (2, 3): -1, (3, 4): 1})
        assert contract(w).is_zero()

    def test_wrong_grade(self):
        with pytest.raises(ValueError):
            contract(ExteriorVector.basis(3, QQ, (1, 2)))

    def test_definitional_single_term(self):
        out = contract_vectors([unit(1, 2), unit(4, 2)], 2, QQ)
        assert out.coords == {(): 1}

    def test_definitional_vanishing(self):
        out = contract_vectors([unit(1, 3), unit(2, 3), unit(3, 3)], 3, QQ)
        assert out.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_oracle_agreement(self, n, field):
        rng = random.Random(100 * n)
        for _ in range(25):
            vecs = [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(n)]
            assert contract(wedge(vecs, n, field)) == contract_vectors(vecs, n, field)

    def test_kernel_characterization(self):
        # contract(w) vanishes exactly when, for every length n-2 tuple,
        # the signed coordinate sum over complementary pairs does
        n = 3
        rng = random.Random(9)
        for _ in range(40):
            coords = {}
            for t in rng.sample(index_tuples(n, 2 * n), 5):
                coords[t] = rng.randint(-3, 3)
            w = ExteriorVector(n, n, QQ, coords)
            sums = []
            for gamma in index_tuples(n - 2, 2 * n):
                s = QQ.zero
                for i in range(1, n + 1):
                    word = (i,) + gamma + (2 * n + 1 - i,)
                    s += w.coefficient_word(word)
                sums.append(s)
            assert contract(w).is_zero() == all(v == 0 for v in sums)


class TestCoefficientWord:
    def test_sign_tracking(self):
        w = ExteriorVector.basis(3, QQ, (1, 2, 6))
        assert w.coefficient_word((1, 2, 6)) == 1
        assert w.coefficient_word((2, 1, 6)) == -1
        assert w.coefficient_word((2, 2, 6)) == 0


class TestIsotropy:
    def test_span_without_pairs(self):
        assert is_isotropic(SubspaceBasis(2, QQ, [unit(1, 2), unit(2, 2)]))

    def test_complementary_span(self):
        assert not is_isotropic(SubspaceBasis(2, QQ, [unit(1, 2), unit(4, 2)]))

    def test_gram_oracle(self):
        rows = [[1, 0, 1, 0], [0, 1, 0, 1]]
        basis = SubspaceBasis(2, QQ, rows)
        oracle = pairing(rows[0], rows[1], 2, QQ) == 0
        assert is_isotropic(basis) == oracle

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(2147483647)])
    def test_matches_gram_on_perturbed_lagrangians(self, field):
        rng = random.Random(field.char)
        for n in (2, 3, 4):
            for seed in range(10):
                rows = [list(r) for r in random_lagrangian(n, field, seed).rows]
                if seed % 2:  # one entry moved: isotropic only by accident
                    rows[rng.randrange(n)][rng.randrange(2 * n)] += Fraction(1, 3) if field == QQ else 1
                if rank(ExactMatrix.from_rows(rows, field)) < n:
                    continue
                basis = SubspaceBasis(n, field, rows)
                assert is_isotropic(basis) == all(not v for row in basis.gram() for v in row)

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, QQ, [[1, 2, 3, 4], [2, 4, 6, 8]])

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 1, 0, 0]],
        [[1, 0, 1, 0], [1, 0, 1, 0]],
        [[1, 1, 0, 0], [0, 1, 0, 0], [1, 2, 0, 0]],
    ])
    def test_zero_or_repeated_row_rejected(self, rows):
        with pytest.raises(ValueError):
            SubspaceBasis(2, GF(3), rows)

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0, 0], [1, 0, 0, 0]],
        [[1, 1, 0, 0], [1, 0, 0, 1]],
        [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
    ])
    def test_independent_rows_outside_echelon_form_accepted(self, rows):
        assert SubspaceBasis(2, GF(3), rows).rows == tuple(map(tuple, rows))


class TestRandomLagrangian:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("field", [QQ, GF(3)])
    def test_isotropic_full_dimension(self, n, field):
        lag = random_lagrangian(n, field, seed=n)
        assert lag.dim == n
        assert is_isotropic(lag)

    @pytest.mark.parametrize("n", [2, 3])
    def test_wedge_in_contraction_kernel(self, n):
        for seed in range(4):
            lag = random_lagrangian(n, QQ, seed)
            w = plucker_vector(lag)
            assert contract(w).is_zero()
            assert satisfies_plucker_relations(w)

    def test_deterministic(self):
        assert random_lagrangian(3, GF(5), 7) == random_lagrangian(3, GF(5), 7)

    @pytest.mark.parametrize("n,field", [(-1, GF(2)), (0, QQ)])
    def test_n_below_one_rejected(self, n, field):
        with pytest.raises(ValueError, match=f"^need n >= 1, got {n}$"):
            random_lagrangian(n, field, 1)

    def test_non_isotropic_result_raises(self, monkeypatch):
        monkeypatch.setattr(symplectic, "is_isotropic", lambda basis: False)
        with pytest.raises(ArithmeticError, match=r"n=3, seed=5"):
            random_lagrangian(3, QQ, seed=5)

    def test_pinned_draws(self):
        assert random_lagrangian(3, QQ, seed=4).rows == (
            (-2, 0, -6, 3, 6, -5),
            (Fraction(-101, 5), -7, -7, -9, 3, 8),
            (Fraction(-884, 105), Fraction(-85, 63), 0, -8, -2, 7),
        )
        assert random_lagrangian(4, GF(7), seed=2).rows == (
            (6, 6, 0, 0, 0, 2, 6, 1),
            (1, 5, 6, 5, 6, 2, 2, 4),
            (6, 0, 1, 4, 0, 4, 5, 1),
            (2, 3, 2, 3, 5, 3, 6, 5),
        )


def rref_isotropic_bases(n, q):
    """Brute-force oracle: every n x 2n reduced row echelon matrix over
    GF(q) whose rows pair to zero, as a set of row tuples."""
    field = GF(q)
    found = set()
    for pivots in combinations(range(2 * n), n):
        slots = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, 2 * n) if c not in pivots]
        for values in product(range(q), repeat=len(slots)):
            rows = [[0] * (2 * n) for _ in range(n)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(slots, values):
                rows[r][c] = v
            if not any(pairing(a, b, n, field) for a, b in combinations(rows, 2)):
                found.add(tuple(map(tuple, rows)))
    return found


def literal_lagrangian_subspaces(n, q):
    """The enumeration written point by point: each cell's rows built
    from scratch and handed to the validating constructor."""
    field = GF(q)
    last = 2 * n - 1
    for pivots in combinations(range(2 * n), n):
        if any(last - c in pivots for c in pivots):
            continue
        eps = [1 if c < n else -1 for c in pivots]
        free = [(r, s) for r in range(n) for s in range(r, n) if pivots[r] + pivots[s] < last]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * (2 * n) for _ in range(n)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
            for (r, s), y in zip(free, values):
                rows[r][last - pivots[s]] = eps[s] * y % q
                rows[s][last - pivots[r]] = eps[r] * y % q
            yield SubspaceBasis(n, field, rows)


class TestEnumeration:
    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)])
    def test_matches_literal_enumeration(self, n, q):
        field = GF(q)
        got = list(lagrangian_subspaces(n, q))
        want = list(literal_lagrangian_subspaces(n, q))
        assert [lag.rows for lag in got] == [lag.rows for lag in want]
        for lag in got:
            assert lag.dim == n
            assert all(type(v) is int and 0 <= v < q for row in lag.rows for v in row)
            assert lag == SubspaceBasis(n, field, lag.rows)


    @pytest.mark.parametrize("n,q,expected", [(2, 2, 15), (2, 3, 40), (3, 2, 135)])
    def test_counts(self, n, q, expected):
        assert lagrangian_count(n, q) == expected
        assert sum(1 for _ in lagrangian_subspaces(n, q)) == expected

    @pytest.mark.parametrize("n", [-1, 0])
    def test_count_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"^need n >= 1, got {n}$"):
            lagrangian_count(n, 2)

    @pytest.mark.parametrize("q", [6, 4, 1, 0, -3])
    def test_count_rejects_q_as_gf_does(self, q):
        with pytest.raises(ValueError, match=f"^modulus {q} is not prime$"):
            lagrangian_count(2, q)
        # n first, as lagrangian_cells checks them
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            lagrangian_count(0, q)

    def test_count_rejects_q_past_the_field_cap(self):
        with pytest.raises(ValueError, match="exceeds the desk-scale cap"):
            lagrangian_count(1, 2147483659)  # the least prime past MAX_PRIME

    def test_lines_all_isotropic(self):
        assert sum(1 for _ in lagrangian_subspaces(1, 2)) == 3

    def test_representatives_unique(self):
        seen = set()
        for lag in lagrangian_subspaces(2, 3):
            assert lag.rows not in seen
            seen.add(lag.rows)

    def test_every_subspace_lagrangian(self):
        for lag in lagrangian_subspaces(2, 2):
            assert lag.dim == 2
            assert is_isotropic(lag)
            w = plucker_vector(lag)
            assert contract(w).is_zero()
            assert satisfies_plucker_relations(w)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            next(iter(lagrangian_subspaces(6, 2)))

    @pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_matches_rref_oracle(self, n, q):
        rows = [lag.rows for lag in enumerated_bases(n, q)]
        assert len(set(rows)) == len(rows)
        assert set(rows) == rref_isotropic_bases(n, q)

    @pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (4, 2)])
    def test_reduced_echelon_grouped_by_pivot_set(self, n, q):
        cells = []
        for lag in enumerated_bases(n, q):
            pivots = tuple(next(j for j, v in enumerate(row) if v) for row in lag.rows)
            assert list(pivots) == sorted(set(pivots))
            for r, c in enumerate(pivots):
                assert [row[c] for row in lag.rows] == [int(i == r) for i in range(n)]
            cells.append(pivots)
        assert cells == sorted(cells)
        assert len(set(cells)) == 2**n

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cell_dimensions_sum_to_point_count(self, n):
        # one pivot set per choice of c or 2n - 1 - c for each c < n, with
        # a free value for every r <= s whose pivots p_r + p_s < 2n - 1
        dims = []
        for choice in product(*[(c, 2 * n - 1 - c) for c in range(n)]):
            p = sorted(choice)
            dims.append(sum(1 for r in range(n) for s in range(r, n) if p[r] + p[s] < 2 * n - 1))
        for q in (2, 3, 5, 7):
            assert sum(q**d for d in dims) == lagrangian_count(n, q)


def interior_product_rank(w):
    """Brute decomposability oracle: rank of the covector contraction map."""
    n2 = 2 * w.n
    cols = index_tuples(w.grade - 1, n2)
    col_pos = {t: j for j, t in enumerate(cols)}
    rows = [{} for _ in range(n2)]
    for alpha, val in w.coords.items():
        for pos, j in enumerate(alpha):
            beta = alpha[:pos] + alpha[pos + 1 :]
            sign_val = val if pos % 2 == 0 else w.field.neg(val)
            c = col_pos[beta]
            acc = w.field.add(rows[j - 1].get(c, w.field.zero), sign_val)
            if acc:
                rows[j - 1][c] = acc
            else:
                rows[j - 1].pop(c, None)
    return rank(ExactMatrix(n2, len(cols), w.field, rows))


def literal_plucker_relations(w):
    """The quadratic relations read off their definition, one pair at a time.

    For each alpha (length n - 1) and beta (length n + 1) the alternating
    sum over the entries of beta of the products p(alpha + beta_i) *
    p(beta minus beta_i) must vanish, coordinates addressed with the
    sorting-parity convention. Returns the first failing (alpha, beta),
    or None.
    """
    n = w.n
    field = w.field
    for alpha in index_tuples(n - 1, 2 * n):
        for beta in index_tuples(n + 1, 2 * n):
            total = field.zero
            for pos in range(n + 1):
                c1 = w.coefficient_word(alpha + (beta[pos],))
                if not c1:
                    continue
                c2 = w.coefficient(beta[:pos] + beta[pos + 1 :])
                if not c2:
                    continue
                term = field.mul(c1, c2)
                if pos % 2 == 0:
                    term = field.neg(term)
                total = field.add(total, term)
            if total:
                return alpha, beta
    return None


def bumped(w, seed):
    """w with one coordinate, chosen by the seed, raised by one."""
    t = random.Random(seed).choice(index_tuples(w.n, 2 * w.n))
    return w + ExteriorVector.basis(w.n, w.field, t)


def over(w, field):
    """The integer coordinates of w read over another field."""
    return ExteriorVector(w.n, w.n, field, {t: int(v) for t, v in w.coords.items()})


def assert_matches_oracle(w):
    want = literal_plucker_relations(w)
    assert satisfies_plucker_relations(w) == (want is None), w
    if want is not None:
        assert failing_plucker_relation(w) == want, w
    return want is None


def random_sparse_vectors(n, count, seed):
    """The vectors that test_against_decomposability_oracle draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = {}
        for t in rng.sample(index_tuples(n, 2 * n), rng.randint(2, 4)):
            coords[t] = rng.randint(-2, 2)
        out.append(ExteriorVector(n, n, QQ, coords))
    return out


class TestPluckerRelationTable:
    @pytest.mark.parametrize("n,relations,terms", [(2, 4, 12), (3, 135, 420), (4, 2576, 8680)])
    def test_sizes(self, n, relations, terms):
        table = plucker_relation_table(n)
        assert len(table.labels) == len(table.starts) == relations
        assert len(table.signs) == len(table.first) == len(table.second) == terms
        assert set(table.signs.tolist()) == {-1, 1}
        assert table.starts[0] == 0 and all(b > a for a, b in zip(table.starts, table.starts[1:]))

    def test_n1_has_no_relations(self):
        assert len(plucker_relation_table(1).labels) == 0
        assert satisfies_plucker_relations(ExteriorVector(1, 1, GF(3), {(1,): 1, (2,): 2}))

    def test_built_once_per_n(self):
        assert plucker_relation_table(3) is plucker_relation_table(3)

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_enumerated_points_against_literal_oracle(self, n, q):
        points = enumerated_points(n, q)
        for i, w in enumerate(points):
            assert assert_matches_oracle(w)
            assert_matches_oracle(over(w, QQ))
        verdicts = [assert_matches_oracle(bumped(w, i)) for i, w in enumerate(points)]
        assert not all(verdicts)

    def test_random_vectors_against_literal_oracle(self):
        vectors = random_sparse_vectors(3, 100, seed=17)
        for field in (QQ, GF(5)):
            verdicts = [assert_matches_oracle(over(w, field)) for w in vectors]
            assert 10 < verdicts.count(False) < 100

    def test_largest_prime_stays_exact(self):
        # scaled by 393, this point has a relation whose signed products,
        # each below p^2 < 2^62, sum past 2^63 unless each is reduced first
        field = GF(2147483647)
        w = plucker_vector(random_lagrangian(3, field, seed=0)).scaled(393)
        assert assert_matches_oracle(w)
        assert not assert_matches_oracle(bumped(w, 5))

    def test_wrong_grade(self):
        with pytest.raises(ValueError):
            satisfies_plucker_relations(ExteriorVector.basis(3, QQ, (1, 2)))


class TestPluckerRelations:
    def test_wedges_satisfy(self):
        rng = random.Random(2)
        for n in (2, 3):
            vecs = [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(n)]
            w = wedge(vecs, n, QQ)
            if not w.is_zero():
                assert satisfies_plucker_relations(w)

    def test_known_violation(self):
        w = ExteriorVector(2, 2, QQ, {(1, 2): 1, (3, 4): 1})
        assert not satisfies_plucker_relations(w)
        value = (
            w.coefficient((1, 2)) * w.coefficient((3, 4))
            - w.coefficient((1, 3)) * w.coefficient((2, 4))
            + w.coefficient((1, 4)) * w.coefficient((2, 3))
        )
        assert value == 1

    def test_against_decomposability_oracle(self):
        n = 3
        rng = random.Random(17)
        checked_nondecomposable = 0
        for _ in range(100):
            coords = {}
            for t in rng.sample(index_tuples(n, 2 * n), rng.randint(2, 4)):
                coords[t] = rng.randint(-2, 2)
            w = ExteriorVector(n, n, QQ, coords)
            if w.is_zero():
                continue
            decomposable = interior_product_rank(w) <= n
            assert satisfies_plucker_relations(w) == decomposable
            if not decomposable:
                checked_nondecomposable += 1
        assert checked_nondecomposable > 10


class DictVector:
    """The sparse dict carrier that ExteriorVector held before its dense
    array, kept as the reference: the nonzero coordinates keyed by index
    tuple, every key validated and every value coerced."""

    def __init__(self, n, grade, field, coords):
        self.n, self.grade, self.field = n, grade, field
        self.coords = {}
        for key, val in coords.items():
            validate_index_tuple(key, 2 * n, length=grade)
            val = field.coerce(val)
            if val:
                self.coords[key] = val

    def coefficient(self, alpha):
        return self.coords.get(alpha, self.field.zero)

    def coefficient_word(self, word):
        sign = sorting_sign(word)
        if sign == 0:
            return self.field.zero
        val = self.coefficient(tuple(sorted(word)))
        return val if sign > 0 else self.field.neg(val)

    def __add__(self, other):
        coords = dict(self.coords)
        for k, v in other.coords.items():
            coords[k] = self.field.add(coords.get(k, self.field.zero), v)
        return DictVector(self.n, self.grade, self.field, coords)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, s):
        s = self.field.coerce(s)
        return DictVector(self.n, self.grade, self.field, {k: self.field.mul(v, s) for k, v in self.coords.items()})

    def __eq__(self, other):
        return self.coords == other.coords

    def __repr__(self):
        terms = ", ".join(f"{k}: {v}" for k, v in sorted(self.coords.items()))
        return f"ExteriorVector(n={self.n}, grade={self.grade}, {{{terms}}})"


# zeros, negative ints, and Fractions whose denominators are units mod 2, 5 and 2^31 - 1
SCALARS = st.one_of(
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 3, 7, 9, 21])),
)


def typed(coords):
    """The coordinates with each value's type, so a numpy scalar differs."""
    return {k: (v, type(v)) for k, v in coords.items()}


class TestDenseCarrier:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_coordinate_table(self, n):
        # the array signs against pair_adjacent_sign, tuple by tuple; past
        # n = 5 on the grades of the relation matrix's rows and columns
        for k in range(2 * n + 1) if n <= 5 else (n - 2, n):
            table = coordinates(k, n)
            assert table is coordinates(k, n)
            assert table.tuples == index_tuples(k, 2 * n)
            assert len(table.position) == len(table.tuples)
            assert all(table.position[t] == tuple_rank(t, 2 * n) for t in table.tuples)
            assert table.signs.dtype == np.int64
            assert table.signs.tolist() == [pair_adjacent_sign(t, n) for t in table.tuples]

    @pytest.mark.parametrize("alpha", [(2, 1), (1, 1), (1,), (1, 5)])
    def test_coefficient_rejects_non_canonical_tuples(self, alpha):
        w = ExteriorVector(2, 2, GF(3), {(1, 2): 1})
        assert w.coefficient_word((2, 1)) == 2
        with pytest.raises(ValueError, match=re.escape(repr(alpha))):
            w.coefficient(alpha)

    @given(st.data())
    def test_matches_dict_reference(self, data):
        n = data.draw(st.integers(1, 4))
        grade = data.draw(st.integers(0, 2 * n))
        field = data.draw(st.sampled_from([GF(2), GF(5), GF(2147483647), QQ]))
        tuples = index_tuples(grade, 2 * n)

        def draw_coords():
            keys = data.draw(st.lists(st.sampled_from(tuples), unique=True, max_size=6))
            return {k: data.draw(SCALARS) for k in keys}

        a, b, s = draw_coords(), draw_coords(), data.draw(SCALARS)
        w, v = ExteriorVector(n, grade, field, a), ExteriorVector(n, grade, field, b)
        rw, rv = DictVector(n, grade, field, a), DictVector(n, grade, field, b)
        for got, want in [(w, rw), (v, rv), (w + v, rw + rv), (w - v, rw - rv), (w.scaled(s), rw.scaled(s))]:
            assert typed(got.coords) == typed(want.coords)
            assert got.is_zero() == (not want.coords)
            assert repr(got) == repr(want)
            assert [got.coefficient(t) for t in tuples] == [want.coefficient(t) for t in tuples]
        word = tuple(data.draw(st.lists(st.integers(1, 2 * n), min_size=grade, max_size=grade)))
        assert w.coefficient_word(word) == rw.coefficient_word(word)
        assert (w == v) == (rw == rv)
        assert (w + v) - v == w


def fraction_random_lagrangian(n, field, seed):
    """random_lagrangian as it was written on Field scalars: the
    perpendicular basis from linalg.nullspace and the independence test
    from linalg.rank, both on exact rows (Fractions over QQ)."""
    rng = random.Random(seed)
    rows = []

    def perp_basis():
        if not rows:
            return [[field.one if c == i else field.zero for c in range(2 * n)] for i in range(2 * n)]
        last = 2 * n - 1
        pair_rows = [[r[last - c] if c >= n else field.neg(r[last - c]) for c in range(2 * n)] for r in rows]
        return nullspace(ExactMatrix.from_rows(pair_rows, field))

    while len(rows) < n:
        basis = perp_basis()
        if field.char:
            coeffs = [rng.randrange(field.char) for _ in basis]
        else:
            coeffs = [rng.randint(-9, 9) for _ in basis]
        cand = [field.zero] * (2 * n)
        for c, vec in zip(coeffs, basis):
            if c:
                cand = [field.add(a, field.mul(field.coerce(c), b)) for a, b in zip(cand, vec)]
        if not any(cand):
            continue
        if rank(ExactMatrix.from_rows(rows + [cand], field)) == len(rows) + 1:
            rows.append(cand)
    return SubspaceBasis(n, field, rows)


class TestIntegerDraw:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_fraction_elimination(self, n):
        for seed in range(40):
            got = random_lagrangian(n, QQ, seed)
            assert got == fraction_random_lagrangian(n, QQ, seed)
            assert all(type(x) is Fraction for row in got.rows for x in row)

    @pytest.mark.parametrize("p", [2, 7, 2147483647])
    def test_matches_over_prime_fields(self, p):
        for n in (2, 3, 4):
            for seed in range(5):
                got = random_lagrangian(n, GF(p), seed)
                assert got == fraction_random_lagrangian(n, GF(p), seed)
                assert all(type(x) is int and 0 <= x < p for row in got.rows for x in row)


def dict_laplace_table(j, m):
    """laplace_table built by position lookups, as it was first written."""
    before = {t: r for r, t in enumerate(index_tuples(j, m))}
    tuples = index_tuples(j + 1, m)
    column = [[i - 1 for i in t] for t in tuples]
    previous = [[before[t[:pos] + t[pos + 1 :]] for pos in range(j + 1)] for t in tuples]
    return tuples, column, previous


def closed_form_previous(j, m):
    """laplace_table's previous by the closed form of tuple_rank (see
    conftest.binomials): removing the entry at pos moves each later entry
    one place left."""
    t = tuple_array(index_tuples(j + 1, m), j + 1)
    c = binomials(m + 1)
    places = np.arange(j + 1)
    before = c[m - t, j - places]  # entry q at place q, for q < pos
    after = c[m - t, j + 1 - places]  # entry q at place q - 1, for q > pos
    sum_before = np.cumsum(before, axis=1) - before
    sum_after = after.sum(axis=1, keepdims=True) - np.cumsum(after, axis=1)
    return comb(m, j) - 1 - sum_before - sum_after


class TestLaplaceTableFromRanks:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_dict_construction(self, m):
        for j in range(m):
            table = laplace_table(j, m)
            tuples, column, previous = dict_laplace_table(j, m)
            assert table.tuples == tuples
            assert table.column.tolist() == column
            assert table.previous.tolist() == previous == closed_form_previous(j, m).tolist()
            assert table.previous.dtype == np.int64
            assert table.signs.tolist() == [(-1) ** (j + pos) for pos in range(j + 1)]


def literal_contract(w):
    """contract read off its definition, coordinate by coordinate."""
    n, field = w.n, w.field
    out = {}
    for beta, val in w.coords.items():
        for i in range(1, n + 1):
            ibar = 2 * n + 1 - i
            if i in beta and ibar in beta:
                gamma = tuple(x for x in beta if x not in (i, ibar))
                term = val if sorting_sign(gamma + (i, ibar)) > 0 else field.neg(val)
                out[gamma] = field.add(out.get(gamma, field.zero), term)
    return ExteriorVector(n, n - 2, field, out)


def dict_contraction_table(n):
    """contraction_table by position lookups, one term at a time."""
    position = coordinates(n, n).position
    source, signs, starts = [], [], []
    for gamma in coordinates(n - 2, n).tuples:
        starts.append(len(source))
        for i, ibar in zip(range(1, n + 1), range(2 * n, n, -1)):
            if i not in gamma and ibar not in gamma:
                source.append(position[tuple(sorted(gamma + (i, ibar)))])
                signs.append((-1) ** (sum(g > i for g in gamma) + sum(g > ibar for g in gamma)))
    return source, signs, starts


class TestContractionTable:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_dict_construction(self, n):
        table = symplectic.contraction_table(n)
        assert [a.tolist() for a in table] == list(dict_contraction_table(n))
        assert all(a.dtype == np.int64 for a in table)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rational_wedges_against_contract_vectors(self, n):
        rng = random.Random(n)
        for _ in range(3 if n > 5 else 10):
            vecs = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(2 * n)] for _ in range(n)]
            got = contract(wedge(vecs, n, QQ))
            assert got == contract_vectors(vecs, n, QQ)
            assert all(type(x) is Fraction for x in got.values.tolist())

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("p", [3, 2147483647])
    def test_sparse_vectors_over_gf(self, n, p):
        field = GF(p)
        rng = random.Random(n * p)
        tuples = index_tuples(n, 2 * n)
        for _ in range(10):
            coords = {t: rng.randrange(p) for t in rng.sample(tuples, min(8, len(tuples)))}
            w = ExteriorVector(n, n, field, coords)
            got = contract(w)
            assert got == literal_contract(w)
            assert all(type(x) is int for x in got.values.tolist())
        vecs = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(2 * n)] for _ in range(n)]
        assert contract(wedge(vecs, n, field)) == contract_vectors(vecs, n, field)

    def test_table_built_once_per_n(self):
        table = symplectic.contraction_table(4)
        assert table is symplectic.contraction_table(4)
        source, signs, starts = table
        # one term per complementary pair inside each 4-tuple over [1, 8],
        # and at least two per 2-tuple
        assert len(source) == len(signs) == sum(
            sum(1 for i in range(1, 5) if i in t and 9 - i in t) for t in index_tuples(4, 8)
        )
        assert len(starts) == 28 and starts[0] == 0 and (np.diff(starts) >= 2).all()


def cell_order_key(rows, n, q):
    """Where a basis falls in lagrangian_cells' documented order: its pivot
    set, then its free values y = eps_s X[r, s] for r <= s, in order of (r, s)."""
    last = 2 * n - 1
    pivots = tuple(next(c for c, v in enumerate(row) if v) for row in rows)
    eps = [1 if c < n else -1 for c in pivots]
    free = tuple(
        eps[s] * rows[r][last - pivots[s]] % q for r in range(n) for s in range(r, n) if pivots[r] + pivots[s] < last
    )
    return pivots, free


class TestLagrangianCells:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_flattened_cells_match_rref_oracle_in_order(self, n, q):
        cells = list(symplectic.lagrangian_cells(n, q))
        assert len(cells) == 2**n
        for cell in cells:
            assert cell.dtype == np.int64 and cell.shape[1:] == (n, 2 * n)
            assert len({cell_order_key(rows, n, q)[0] for rows in cell.tolist()}) == 1
        flat = [tuple(map(tuple, rows)) for cell in cells for rows in cell.tolist()]
        assert flat == sorted(rref_isotropic_bases(n, q), key=lambda rows: cell_order_key(rows, n, q))

    @pytest.mark.parametrize("n,q", [(1, 5), (3, 3), (4, 2)])
    def test_subspaces_are_the_cells_rows(self, n, q):
        flat = [tuple(map(tuple, rows)) for cell in symplectic.lagrangian_cells(n, q) for rows in cell.tolist()]
        assert [lag.rows for lag in enumerated_bases(n, q)] == flat
        assert sum(map(len, symplectic.lagrangian_cells(n, q))) == lagrangian_count(n, q)

    def test_more_points_than_one_chunk(self, monkeypatch):
        # (3, 3) has cells of 729 points; chunks of 100 cut through them
        monkeypatch.setattr(symplectic, "_CHUNK", 100)
        assert [lag.rows for lag in lagrangian_subspaces(3, 3)] == [lag.rows for lag in enumerated_bases(3, 3)]

    @pytest.mark.parametrize("n,q,error", [
        (0, 2, ValueError), (0, 4, ValueError), (2, 4, ValueError), (12, 1000003, ResourceCapError),
    ])
    def test_checked_before_the_first_cell(self, n, q, error):
        # n = 12, q = 1000003 would start with a cell of q^78 points
        with pytest.raises(error):
            next(symplectic.lagrangian_cells(n, q))
