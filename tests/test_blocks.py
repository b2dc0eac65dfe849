from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from lgplucker import (
    GF,
    QQ,
    BlockEquivalenceError,
    DecompositionError,
    IncidenceMatrix,
    PlueckerMatrix,
    atlas,
    check_regularity,
    decompose,
    incidence_matrix,
    r_value,
    rank,
    split_free_pairs,
    verify_block_equiv,
)
from conftest import bmatrix


def literal_incidence_matrix(m):
    """L(m) by definition: every (m-2)/2-subset tested for containment in
    every m/2-subset of [1, m], both in lexicographic order."""
    rows = list(combinations(range(1, m + 1), (m - 2) // 2))
    cols = list(combinations(range(1, m + 1), m // 2))
    bits = np.array([[int(set(alpha).issubset(beta)) for beta in cols] for alpha in rows], dtype=np.int8)
    return IncidenceMatrix(m, bits, tuple(rows), tuple(cols))


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_incidence_matrix_matches_literal_containment(m):
    # equality compares m, both label tuples and every bit
    assert incidence_matrix(m) == literal_incidence_matrix(m)


class TestConfiguration:
    def test_m2(self):
        mat = incidence_matrix(2)
        assert mat.col_labels == ((1,), (2,))
        assert mat.row_labels == ((),)
        assert mat.bits.tolist() == [[1, 1]]

    def test_m4(self):
        mat = incidence_matrix(4)
        assert len(mat.col_labels) == 6
        assert len(mat.row_labels) == 4
        assert mat.row_weights() == [r_value(4)] * 4

    def test_m6(self):
        mat = incidence_matrix(6)
        assert len(mat.col_labels) == 20
        assert len(mat.row_labels) == 15
        assert mat.row_weights() == [4] * 15

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            incidence_matrix(3)

    @pytest.mark.parametrize("m", [0, -2])
    def test_m_below_two_rejected(self, m):
        with pytest.raises(ValueError, match="even m >= 2"):
            incidence_matrix(m)


class TestIncidenceMatrix:
    def test_m2_row(self):
        mat = incidence_matrix(2)
        assert mat.bits.tolist() == [[1, 1]]

    def test_m4_weights(self):
        mat = incidence_matrix(4)
        assert mat.shape == (4, 6)
        assert mat.row_weights() == [3] * 4
        assert mat.column_weights() == [2] * 6

    def test_m6_weights(self):
        mat = incidence_matrix(6)
        assert mat.shape == (15, 20)
        assert mat.row_weights() == [4] * 15
        assert mat.column_weights() == [3] * 20


class TestAtlas:
    def test_n4(self):
        members = atlas(4)
        assert [m.shape for m in members] == [(4, 6), (1, 2)]
        assert [m.label for m in members] == ["L3", "L2"]

    def test_n5_same_as_n4(self):
        a4, a5 = atlas(4), atlas(5)
        assert len(a4) == len(a5)
        for x, y in zip(a4, a5):
            assert x == y

    def test_n2(self):
        members = atlas(2)
        assert [m.label for m in members] == ["L2"]

    def test_n6(self):
        members = atlas(6)
        assert [m.shape for m in members] == [(15, 20), (4, 6), (1, 2)]


class TestRegularity:
    def test_l3(self):
        report = check_regularity(incidence_matrix(4))
        assert report.ok
        assert (report.row_weight, report.column_weight) == (3, 2)
        assert report.max_overlap == 1
        assert report.density == Fraction(3, 6)

    def test_l2(self):
        report = check_regularity(incidence_matrix(2))
        assert report.ok
        assert (report.row_weight, report.column_weight) == (2, 1)
        assert report.density == 1

    def test_l4(self):
        report = check_regularity(incidence_matrix(6))
        assert report.ok
        assert report.max_overlap == 1
        assert report.density == Fraction(4, 20)

    def test_corrupted_matrix_fails(self):
        mat = incidence_matrix(4)
        bad = IncidenceMatrix(mat.m, mat.bits.copy(), mat.row_labels, mat.col_labels)
        bad.bits[0, 0] ^= 1
        report = check_regularity(bad)
        assert not report.ok
        assert report.failures


class TestBlockEquivalence:
    def test_reference_is_self_equivalent(self):
        ref = incidence_matrix(4)
        row_perm, col_perm = verify_block_equiv(ref, ref)
        assert row_perm == tuple(range(4))
        assert col_perm == tuple(range(6))

    def test_corrupted_block_detected(self):
        ref = incidence_matrix(4)
        bad = IncidenceMatrix(ref.m, ref.bits.copy(), ref.row_labels, ref.col_labels)
        bad.bits[1, 2] ^= 1
        with pytest.raises(BlockEquivalenceError):
            verify_block_equiv(bad, ref)

    def test_mismatch_names_the_first_differing_entry(self):
        ref = incidence_matrix(6)
        bad = IncidenceMatrix(ref.m, ref.bits.copy(), ref.row_labels, ref.col_labels)
        bad.bits[4, 1] ^= 1
        bad.bits[2, 7] ^= 1
        with pytest.raises(BlockEquivalenceError) as exc:
            verify_block_equiv(bad, ref)
        assert str(exc.value) == f"bit mismatch at block row {ref.row_labels[2]}, column {ref.col_labels[7]}"

    def test_shape_mismatch(self):
        with pytest.raises(BlockEquivalenceError):
            verify_block_equiv(
                incidence_matrix(2),
                incidence_matrix(4),
            )


EXPECTED_CENSUS = {
    2: {"L2": 1},
    3: {"L2": 6},
    4: {"L3": 1, "L2": 24},
    5: {"L3": 10, "L2": 80},
    6: {"L4": 1, "L3": 60, "L2": 240},
}

EXPECTED_ZERO_COLS = {2: 4, 3: 8, 4: 16, 5: 32, 6: 64}


class TestDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_census(self, n):
        dec = decompose(bmatrix(n))
        assert dec.census() == EXPECTED_CENSUS[n]
        assert len(dec.zero_columns) == EXPECTED_ZERO_COLS[n]

    @pytest.mark.parametrize("n", [4, 6])
    def test_census_matches_tuple_ranges(self, n):
        # the number of copies of the m = n - 2k member equals the number
        # of 2k-tuples avoiding complementary pairs: C(n, 2k) * 2^(2k)
        dec = decompose(bmatrix(n))
        census = dec.census()
        for k in range(1, (n - 2) // 2 + 1):
            label = f"L{r_value(n - 2 * k)}"
            assert census[label] == comb(n, 2 * k) * 4**k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_partition_totals(self, n):
        b = bmatrix(n)
        dec = decompose(b)
        assert sum(len(blk.row_tuples) for blk in dec.blocks) == b.shape[0]
        col_total = sum(len(blk.col_tuples) for blk in dec.blocks) + len(dec.zero_columns)
        assert col_total == b.shape[1]
        covered = [t for blk in dec.blocks for t in blk.col_tuples] + list(dec.zero_columns)
        assert len(set(covered)) == b.shape[1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_column_characterization(self, n):
        b = bmatrix(n)
        dec = decompose(b)
        zero = set(dec.zero_columns)
        for t in b.col_tuples:
            assert (t in zero) == (not split_free_pairs(t, n).pairs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_blocks_pass_regularity(self, n):
        for blk in decompose(bmatrix(n)).blocks:
            report = check_regularity(blk.matrix)
            assert report.ok, report.failures

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reassembly_block_diagonal(self, n):
        b = bmatrix(n)
        dec = decompose(b)
        row_order = [t for blk in dec.blocks for t in blk.row_tuples]
        col_order = [t for blk in dec.blocks for t in blk.col_tuples] + list(dec.zero_columns)
        row_pos = {t: i for i, t in enumerate(b.row_tuples)}
        col_pos = {t: j for j, t in enumerate(b.col_tuples)}
        dense = b.dense()
        permuted = dense[np.ix_([row_pos[t] for t in row_order], [col_pos[t] for t in col_order])]
        expected = np.zeros_like(permuted)
        r0 = c0 = 0
        for blk in dec.blocks:
            rr, cc = blk.matrix.shape
            expected[r0 : r0 + rr, c0 : c0 + cc] = blk.matrix.bits
            r0 += rr
            c0 += cc
        assert np.array_equal(permuted, expected)

    def test_block_matches_relation_entries(self, n=4):
        b = bmatrix(n)
        col_pos = {t: j for j, t in enumerate(b.col_tuples)}
        row_pos = {t: i for i, t in enumerate(b.row_tuples)}
        for blk in decompose(b).blocks:
            for bi, row_t in enumerate(blk.row_tuples):
                for bj, col_t in enumerate(blk.col_tuples):
                    assert blk.matrix.bits[bi, bj] == b.entry(row_pos[row_t], col_pos[col_t])


def corrupted(b, supports=None, col_tuples=None):
    return PlueckerMatrix(
        b.n,
        list(b.row_tuples),
        list(b.col_tuples) if col_tuples is None else col_tuples,
        list(b.row_supports) if supports is None else supports,
    )


class TestDirectSum:
    def test_column_claimed_by_two_blocks(self):
        # the first class, free part (1, 2), owns the column (1, 2, 3, 6);
        # a row of the class with free part (1, 3) claims it as well
        b = bmatrix(4)
        shared = b.col_tuples.index((1, 2, 3, 6))
        supports = list(b.row_supports)
        row = b.row_tuples.index((1, 3))
        supports[row] = tuple(sorted(supports[row] + (shared,)))
        with pytest.raises(DecompositionError, match=r"column \(1, 2, 3, 6\) is claimed by the blocks of free parts \(1, 2\) and \(1, 3\)"):
            decompose(corrupted(b, supports=supports))

    def test_widths_and_zero_columns_must_fill_the_columns(self):
        b = bmatrix(4)
        extra = corrupted(b, col_tuples=list(b.col_tuples) + [(1, 2, 3, 4)])
        with pytest.raises(DecompositionError, match="54 block columns and 17 zero columns, expected 70 in all"):
            decompose(extra)

    def test_n7_column_split(self):
        dec = decompose(bmatrix(7))
        assert (sum(len(blk.col_tuples) for blk in dec.blocks), len(dec.zero_columns)) == (3304, 128)


def wilson_rank(m, p):
    """Wilson's diagonal form: the GF(p) rank (p = 0 for QQ) of the
    inclusion matrix of (k-1)-subsets against k-subsets of a 2k-set."""
    k = m // 2
    return sum(
        comb(2 * k, i) - (comb(2 * k, i - 1) if i else 0)
        for i in range(k)
        if p == 0 or (k - i) % p
    )


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_atlas_rank_matches_wilson(m, p):
    mat = incidence_matrix(m)
    assert rank(mat.to_exact(QQ if p == 0 else GF(p))) == wilson_rank(m, p)
