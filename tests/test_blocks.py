import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from lgplucker import (
    GF,
    QQ,
    Block,
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
    row_partition,
    split_free_pairs,
    verify_block_equiv,
)
import lgplucker.blocks
from lgplucker.linalg import BinaryMatrix
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

    def test_blocks_check_each_support_once(self, monkeypatch):
        # a block is built from a checked BinaryMatrix, whose supports it takes as they are
        dec = decompose(bmatrix(7))
        calls = []
        init = BinaryMatrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(BinaryMatrix, "__init__", counted)
        assert len(dec.blocks) == 966
        assert calls == [BinaryMatrix] * 966

    @pytest.mark.parametrize("bits", [[[0, 2]], [[1, 0], [0, -1]], [1, 0, 1], [[[1]]]])
    def test_malformed_array_rejected(self, bits):
        with pytest.raises(ValueError, match="0/1 array"):
            IncidenceMatrix(2, np.array(bits), ((),), ((1,), (2,)))

    def test_array_and_binary_matrix_give_one_matrix(self):
        ref = incidence_matrix(4)
        from_bits = IncidenceMatrix(4, ref.bits, ref.row_labels, ref.col_labels)
        assert from_bits == ref
        assert from_bits.row_supports == ref.row_supports


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
        bits = mat.bits.copy()
        bits[0, 0] ^= 1
        bad = IncidenceMatrix(mat.m, bits, mat.row_labels, mat.col_labels)
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
        bits = ref.bits.copy()
        bits[1, 2] ^= 1
        bad = IncidenceMatrix(ref.m, bits, ref.row_labels, ref.col_labels)
        with pytest.raises(BlockEquivalenceError):
            verify_block_equiv(bad, ref)

    def test_mismatch_names_the_first_differing_entry(self):
        ref = incidence_matrix(6)
        bits = ref.bits.copy()
        bits[4, 1] ^= 1
        bits[2, 7] ^= 1
        bad = IncidenceMatrix(ref.m, bits, ref.row_labels, ref.col_labels)
        with pytest.raises(BlockEquivalenceError) as exc:
            verify_block_equiv(bad, ref)
        assert str(exc.value) == f"bit mismatch at block row {ref.row_labels[2]}, column {ref.col_labels[7]}"

    def test_repeated_column_label_rejected(self):
        # col_perm would not be a bijection, so no relabeling carries the block over
        ref = incidence_matrix(4)
        labels = (ref.col_labels[0],) * 2 + ref.col_labels[2:]
        bad = IncidenceMatrix(ref.m, ref.bits, ref.row_labels, labels)
        with pytest.raises(BlockEquivalenceError, match="two block columns carry the same label"):
            verify_block_equiv(bad, ref)

    def test_shape_mismatch(self):
        with pytest.raises(BlockEquivalenceError):
            verify_block_equiv(
                incidence_matrix(2),
                incidence_matrix(4),
            )


def literal_block_equiv(block, reference, row_perm, col_perm):
    """The block check on dense arrays: block[i, j] must equal
    reference[row_perm[i], col_perm[j]] everywhere; raises naming the
    first differing entry in row-major order."""
    differ = block.bits != reference.bits.take(row_perm, axis=0).take(col_perm, axis=1)
    if differ.any():
        i, j = np.argwhere(differ)[0]
        raise BlockEquivalenceError(
            f"bit mismatch at block row {block.row_labels[i]}, column {block.col_labels[j]}"
        )


class TestBlockCheckOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_agrees_on_every_block(self, n):
        dec = decompose(bmatrix(n))
        for blk in dec.blocks:
            assert verify_block_equiv(blk.matrix, dec.references[blk.m]) == (blk.row_perm, blk.col_perm)
            literal_block_equiv(blk.matrix, dec.references[blk.m], blk.row_perm, blk.col_perm)

    @staticmethod
    def assert_both_name(blk, ref, bits, i, j):
        bad = IncidenceMatrix(blk.m, bits, blk.matrix.row_labels, blk.matrix.col_labels)
        with pytest.raises(BlockEquivalenceError) as fast:
            verify_block_equiv(bad, ref)
        with pytest.raises(BlockEquivalenceError) as literal:
            literal_block_equiv(bad, ref, blk.row_perm, blk.col_perm)
        assert str(fast.value) == str(literal.value)
        assert str(fast.value).endswith(f"row {bad.row_labels[i]}, column {bad.col_labels[j]}")

    def test_single_flips_name_the_same_entry(self):
        # the permutations come from the labels alone, so a flip keeps them
        dec = decompose(bmatrix(5))
        flips = 0
        for blk in dec.blocks:
            ref = dec.references[blk.m]
            for i, j in np.ndindex(*blk.matrix.shape):
                bits = blk.matrix.bits
                bits[i, j] ^= 1
                self.assert_both_name(blk, ref, bits, i, j)
                flips += 1
        assert flips == 10 * 4 * 6 + 80 * 1 * 2

    def test_flipped_row_names_its_first_column(self):
        dec = decompose(bmatrix(5))
        for blk in dec.blocks:
            for i in range(blk.matrix.rows):
                bits = blk.matrix.bits
                bits[i] ^= 1
                self.assert_both_name(blk, dec.references[blk.m], bits, i, 0)


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
        dense = b.bits
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


def literal_decompose(b):
    """decompose one class at a time: claim the columns each class
    touches, in first-seen order of the free parts, then run
    verify_block_equiv on its block. Returns (blocks, zero columns)."""
    n = b.n

    def lows(t):
        return tuple(p.low for p in split_free_pairs(t, n).pairs)

    classes = {}
    for i, t in enumerate(b.row_tuples):
        classes.setdefault(split_free_pairs(t, n).free, []).append(i)
    owner = [None] * len(b.col_tuples)
    blocks = []
    for free, rows_idx in classes.items():
        m = n - len(free)
        col_idx = sorted({j for i in rows_idx for j in b.row_supports[i]})
        for j in col_idx:
            if owner[j] is not None:
                raise DecompositionError(
                    f"column {b.col_tuples[j]} is claimed by the blocks of free parts {owner[j]} and {free}"
                )
            owner[j] = free
        col_pos = {j: k for k, j in enumerate(col_idx)}
        mat = IncidenceMatrix(
            m,
            BinaryMatrix(len(rows_idx), len(col_idx), [[col_pos[j] for j in b.row_supports[i]] for i in rows_idx]),
            tuple(lows(b.row_tuples[i]) for i in rows_idx),
            tuple(lows(b.col_tuples[j]) for j in col_idx),
        )
        row_perm, col_perm = verify_block_equiv(mat, incidence_matrix(m))
        blocks.append(
            Block(free, m, tuple(b.row_tuples[i] for i in rows_idx), tuple(b.col_tuples[j] for j in col_idx),
                  mat, row_perm, col_perm)
        )
    zero = []
    for j, t in enumerate(b.col_tuples):
        if owner[j] is None:
            if lows(t):
                raise DecompositionError(f"uncovered column {t} contains a complete pair")
            zero.append(t)
    covered = sum(len(blk.col_tuples) for blk in blocks)
    if covered + len(zero) != comb(2 * n, n):
        raise DecompositionError(f"{covered} block columns and {len(zero)} zero columns, expected {comb(2 * n, n)} in all")
    return blocks, tuple(zero)


def outcome(decomposer, b):
    """What a decomposition gives: its blocks and zero columns, or the
    type and message of the error it raises."""
    try:
        dec = decomposer(b)
    except DecompositionError as exc:
        return type(exc), str(exc)
    return dec if isinstance(dec, tuple) else (dec.blocks, dec.zero_columns)


class TestArrayDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_the_block_by_block_oracle(self, n):
        assert outcome(decompose, bmatrix(n)) == outcome(literal_decompose, bmatrix(n))

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("change", ["add", "drop", "move"])
    def test_corrupted_row_fails_as_the_oracle_does(self, n, change):
        # one entry added, dropped or moved in one row at a time; the
        # error type and message must be those of the block-by-block run
        b = bmatrix(n)
        rng = random.Random(f"{n}-{change}")
        kinds = set()
        for i, support in enumerate(b.row_supports):
            row = set(support)
            if change in ("drop", "move"):
                row.discard(rng.choice(support))
            if change in ("add", "move"):
                row.add(rng.choice([j for j in range(b.cols) if j not in support]))
            bad = corrupted(b, supports=b.row_supports[:i] + (tuple(sorted(row)),) + b.row_supports[i + 1 :])
            got = outcome(decompose, bad)
            assert got == outcome(literal_decompose, bad), (i, got)
            kinds.add(got[1].split()[0])
        # the corruptions reach more than one of the checks
        assert len(kinds) >= 2, kinds

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_arrays_accept_b_without_the_oracle(self, n, monkeypatch):
        # the class-by-class pass runs only when an array check fails
        monkeypatch.setattr(lgplucker.blocks, "_class_blocks", None)
        assert sum(decompose(bmatrix(n)).counts.values()) == len(row_partition(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_swapped_column_labels_fail_as_the_oracle_does(self, n):
        # two column tuples trade places, so that a class sees labels of the
        # wrong size, pairs it does not have, or a pair count other than m
        b = bmatrix(n)
        rng = random.Random(n)
        kinds = set()
        for _ in range(60):
            j, k = rng.sample(range(b.cols), 2)
            cols = list(b.col_tuples)
            cols[j], cols[k] = cols[k], cols[j]
            bad = corrupted(b, col_tuples=cols)
            got = outcome(decompose, bad)
            assert got == outcome(literal_decompose, bad), (j, k, got)
            kinds.add(got[1].split()[0] if isinstance(got[1], str) else "ok")
        assert len(kinds) >= 3, kinds

    @pytest.mark.parametrize("n", [4, 5])
    def test_missing_row_fails_as_the_oracle_does(self, n):
        # a class one row short still touches all its columns when m >= 4
        b = bmatrix(n)
        for i in range(0, b.rows, 3):
            bad = PlueckerMatrix(n, b.row_tuples[:i] + b.row_tuples[i + 1 :], list(b.col_tuples),
                                 b.row_supports[:i] + b.row_supports[i + 1 :])
            assert outcome(decompose, bad) == outcome(literal_decompose, bad), i

    def test_extra_column_in_a_class(self):
        # a zero column of B(4) takes the tuple (1, 2, 7, 8), and the row
        # (1, 8) moves its one there: every row still fits L(4), but the
        # class of free part () has 7 columns
        b = bmatrix(4)
        j, z = b.col_tuples.index((1, 2, 7, 8)), b.col_tuples.index(next(iter(decompose(b).zero_columns)))
        cols = list(b.col_tuples)
        cols[z] = cols[j]
        i = b.row_tuples.index((1, 8))
        supports = list(b.row_supports)
        supports[i] = tuple(sorted(z if c == j else c for c in supports[i]))
        bad = corrupted(b, supports=supports, col_tuples=cols)
        got = outcome(decompose, bad)
        assert got == outcome(literal_decompose, bad)
        assert got[0] is BlockEquivalenceError and got[1].startswith("shape mismatch: block (4, 7)")

    def test_two_columns_with_one_label_in_a_class(self):
        # In B(6) the classes with free parts F = (5, 6) and G = (5, 7) both
        # sit on the pairs with lows 1..4. F takes G's columns labelled
        # (1, 2) and (3, 4) for its own (1, 3) and (2, 4), G the reverse,
        # and their rows are rewired so that each still has r = 3 ones, all
        # at columns whose labels contain its own. Only the check that no
        # two columns of a class share a label can tell.
        b = bmatrix(6)
        col = {t: j for j, t in enumerate(b.col_tuples)}
        row = {t: i for i, t in enumerate(b.row_tuples)}

        def tup(free, lows):
            return tuple(sorted(free + lows + tuple(13 - x for x in lows)))

        F, G = (5, 6), (5, 7)
        wiring = {
            F: {1: [(F, 1, 2), (G, 1, 2), (F, 1, 4)], 2: [(F, 1, 2), (G, 1, 2), (F, 2, 3)],
                3: [(F, 3, 4), (G, 3, 4), (F, 2, 3)], 4: [(F, 3, 4), (G, 3, 4), (F, 1, 4)]},
            G: {1: [(F, 1, 3), (G, 1, 3), (G, 1, 4)], 2: [(F, 2, 4), (G, 2, 4), (G, 2, 3)],
                3: [(F, 1, 3), (G, 1, 3), (G, 2, 3)], 4: [(F, 2, 4), (G, 2, 4), (G, 1, 4)]},
        }
        supports = list(b.row_supports)
        for free, rows in wiring.items():
            for low, cols in rows.items():
                supports[row[tup(free, (low,))]] = tuple(sorted(col[tup(owner, (a, c))] for owner, a, c in cols))
        bad = corrupted(b, supports=supports)
        got = outcome(decompose, bad)
        assert got == outcome(literal_decompose, bad)
        assert got == (BlockEquivalenceError, "two block columns carry the same label")

    def test_census_and_rank_build_no_blocks(self):
        dec = decompose(bmatrix(7))
        assert dec.census() == {"L4": 14, "L3": 280, "L2": 672}
        assert dec.rank(QQ) == comb(14, 5)
        assert "blocks" not in vars(dec)
        assert len(dec.blocks) == sum(dec.counts.values()) == 966
        assert dec.blocks is dec.blocks


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
