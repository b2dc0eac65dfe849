import ast
import random
import re
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
    build_plucker_matrix,
    check_regularity,
    decompose,
    incidence_matrix,
    r_value,
    rank,
    split_free_pairs,
)
import lgplucker.blocks
import lgplucker.frlc
from lgplucker.combinatorics import tuple_array
from lgplucker.formats import parse_coord, write_coord
from lgplucker.linalg import BinaryMatrix
from conftest import binomials, bmatrix, row_partition


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


def closed_form_incidence_indices(m):
    """L(m)'s column indices by the closed form of tuple_rank (see
    conftest.binomials): in alpha + {x} an entry of alpha at position q
    moves to q + [alpha_q > x], and x to #{alpha_q < x}."""
    k = m // 2
    alpha = tuple_array(list(combinations(range(1, m + 1), k - 1)), k - 1)
    c, q = binomials(m + 1), np.arange(k - 1)
    ranks = np.empty((len(alpha), m), dtype=np.int64)
    for x in range(1, m + 1):
        ranks[:, x - 1] = (
            comb(m, k) - 1 - c[m - alpha, k - q - (alpha > x)].sum(axis=1) - c[m - x, k - (alpha < x).sum(axis=1)]
        )
    outside = np.ones((len(alpha), m + 1), dtype=bool)
    outside[np.arange(len(alpha))[:, None], alpha] = False
    return ranks[outside[:, 1:]]


@pytest.mark.parametrize("m", range(2, 15, 2))
def test_incidence_matrix_matches_closed_form(m):
    mat = incidence_matrix(m)
    assert mat.indices.tolist() == closed_form_incidence_indices(m).tolist()
    assert mat.indptr.tolist() == list(range(0, mat.rows * r_value(m) + 1, r_value(m)))


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
        assert np.diff(mat.indptr).tolist() == [r_value(4)] * 4

    def test_m6(self):
        mat = incidence_matrix(6)
        assert len(mat.col_labels) == 20
        assert len(mat.row_labels) == 15
        assert np.diff(mat.indptr).tolist() == [4] * 15

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
        assert np.diff(mat.indptr).tolist() == [3] * 4
        assert np.bincount(mat.indices, minlength=mat.cols).tolist() == [2] * 6

    def test_m6_weights(self):
        mat = incidence_matrix(6)
        assert mat.shape == (15, 20)
        assert np.diff(mat.indptr).tolist() == [4] * 15
        assert np.bincount(mat.indices, minlength=mat.cols).tolist() == [3] * 20

    def test_blocks_check_each_support_once(self, monkeypatch):
        # B's ones are checked once, when B is built; the blocks take
        # slices of its arrays and check none of them again
        dec = decompose(bmatrix(7))
        calls = []
        init = BinaryMatrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(BinaryMatrix, "__init__", counted)
        assert len(dec.blocks) == 966
        assert calls == []

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

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_overlap_matches_the_gram_form(self, m):
        mat = incidence_matrix(m)
        assert check_regularity(mat) == gram_regularity(mat)

    def test_rows_sharing_two_columns(self):
        # L(6) with ones added at row (1, 3), column (1, 2, 4) and at row
        # (1, 6), column (1, 2, 3): rows (1, 2) and (1, 3) then share
        # (1, 2, 3) and (1, 2, 4), rows (1, 2) and (1, 6) share (1, 2, 3)
        # and (1, 2, 6); the witness is the first pair in row-major order
        mat = incidence_matrix(6)
        bits = mat.bits.copy()
        assert bits[0].tolist().count(1) == 4 and not bits[1, 1] and not bits[4, 0]
        bits[1, 1] = bits[4, 0] = 1
        bad = IncidenceMatrix(6, bits, mat.row_labels, mat.col_labels)
        report = check_regularity(bad)
        assert report == gram_regularity(bad)
        assert report.max_overlap == 2
        assert report.failures[-1] == f"rows {mat.row_labels[0]} and {mat.row_labels[1]} share 2 columns"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_matrices_match_the_gram_form(self, seed):
        rng = random.Random(seed)
        m = rng.choice([4, 6])
        mat = incidence_matrix(m)
        bits = (np.array([[rng.random() < 0.4 for _ in range(mat.cols)] for _ in range(mat.rows)])).astype(np.int8)
        bad = IncidenceMatrix(m, bits, mat.row_labels, mat.col_labels)
        assert check_regularity(bad) == gram_regularity(bad)


def gram_regularity(mat):
    """check_regularity with the overlap read off the Gram matrix of the
    rows: its largest entry off the diagonal, the first such in row-major
    order naming the witness rows."""
    r = r_value(mat.m)
    failures = [f"row {mat.row_labels[i]} has weight {w}, expected {r}" for i, w in enumerate(np.diff(mat.indptr).tolist()) if w != r]
    failures += [
        f"column {mat.col_labels[j]} has weight {w}, expected {r - 1}"
        for j, w in enumerate(np.bincount(mat.indices, minlength=mat.cols).tolist())
        if w != r - 1
    ]
    overlap = 0
    if mat.rows > 1:
        bits = mat.bits.astype(np.int64)
        gram = bits @ bits.T
        np.fill_diagonal(gram, 0)
        overlap = int(gram.max())
        if overlap > 1:
            i, j = np.unravel_index(int(gram.argmax()), gram.shape)
            failures.append(f"rows {mat.row_labels[int(i)]} and {mat.row_labels[int(j)]} share {overlap} columns")
    return lgplucker.blocks.RegularityReport(
        m=mat.m, r=r, shape=mat.shape, row_weight=r, column_weight=r - 1, max_overlap=overlap,
        density=Fraction(r, comb(mat.m, mat.m // 2)), failures=tuple(failures),
    )


def verify_block_equiv(block, reference):
    """Row and column permutations carrying the block onto the reference.

    The block's labels use original pair indices; the order-preserving
    renumbering of its surviving pairs onto 1..m is the only relabeling
    tried. Returns (row_perm, col_perm) with block[i, j] ==
    reference[row_perm[i], col_perm[j]]; raises BlockEquivalenceError
    otherwise, naming the first differing row and column. The oracle of
    literal_decompose: it accepts a block in any order of its labels.
    """
    if block.shape != reference.shape or block.m != reference.m:
        raise BlockEquivalenceError(
            f"shape mismatch: block {block.shape} (m={block.m}) vs reference "
            f"{reference.shape} (m={reference.m})"
        )
    lows = sorted({x for lbl in block.col_labels for x in lbl})
    if len(lows) != block.m:
        raise BlockEquivalenceError(f"block columns mention {len(lows)} pairs, expected {block.m}")
    renumber = {low: k + 1 for k, low in enumerate(lows)}
    ref_row_pos = {lbl: i for i, lbl in enumerate(reference.row_labels)}
    ref_col_pos = {lbl: j for j, lbl in enumerate(reference.col_labels)}
    try:
        row_perm = tuple(ref_row_pos[tuple(renumber[x] for x in lbl)] for lbl in block.row_labels)
        col_perm = tuple(ref_col_pos[tuple(renumber[x] for x in lbl)] for lbl in block.col_labels)
    except KeyError as exc:
        raise BlockEquivalenceError(f"relabeled subset {exc} missing from the reference") from exc
    if len(set(col_perm)) < len(col_perm):
        raise BlockEquivalenceError("two block columns carry the same label")
    differ = block.bits != reference.bits[np.ix_(row_perm, col_perm)]
    if differ.any():
        i, j = divmod(int(differ.argmax()), block.cols)
        raise BlockEquivalenceError(f"bit mismatch at block row {block.row_labels[i]}, column {block.col_labels[j]}")
    return row_perm, col_perm


def identity(mat):
    return tuple(range(mat.rows)), tuple(range(mat.cols))


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
        # on the canonical labels both oracles carry each block onto its
        # L(m) by the identity
        dec = decompose(bmatrix(n))
        for blk in dec.blocks:
            ref = incidence_matrix(blk.m)
            assert verify_block_equiv(blk.matrix, ref) == identity(ref)
            literal_block_equiv(blk.matrix, ref, *identity(ref))

    @staticmethod
    def assert_both_name(blk, ref, bits, i, j):
        bad = IncidenceMatrix(blk.m, bits, blk.matrix.row_labels, blk.matrix.col_labels)
        with pytest.raises(BlockEquivalenceError) as fast:
            verify_block_equiv(bad, ref)
        with pytest.raises(BlockEquivalenceError) as literal:
            literal_block_equiv(bad, ref, *identity(ref))
        assert str(fast.value) == str(literal.value)
        assert str(fast.value).endswith(f"row {bad.row_labels[i]}, column {bad.col_labels[j]}")

    def test_single_flips_name_the_same_entry(self):
        # the permutations come from the labels alone, so a flip keeps them
        dec = decompose(bmatrix(5))
        flips = 0
        for blk in dec.blocks:
            ref = incidence_matrix(blk.m)
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
                self.assert_both_name(blk, incidence_matrix(blk.m), bits, i, 0)


EXPECTED_CENSUS = {
    2: {"L2": 1},
    3: {"L2": 6},
    4: {"L3": 1, "L2": 24},
    5: {"L3": 10, "L2": 80},
    6: {"L4": 1, "L3": 60, "L2": 240},
}

EXPECTED_ZERO_COLS = {2: 4, 3: 8, 4: 16, 5: 32, 6: 64}


class TestDecomposition:
    @pytest.mark.parametrize(
        "not_b", [lambda: incidence_matrix(4), lambda: parse_coord(write_coord(bmatrix(3)))], ids=["L4", "parsed-B3"]
    )
    def test_matrix_that_is_not_b_rejected(self, not_b):
        # an atlas member and a parsed file are 0/1 matrices without the n of B
        mat = not_b()
        with pytest.raises(TypeError, match=f"^decompose needs a PlueckerMatrix, got {type(mat).__name__}$"):
            decompose(mat)

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
        bits = b.bits
        for blk in decompose(b).blocks:
            for bi, row_t in enumerate(blk.row_tuples):
                for bj, col_t in enumerate(blk.col_tuples):
                    assert blk.matrix.bits[bi, bj] == bits[row_pos[row_t], col_pos[col_t]]


def corrupted(b, supports=None, col_tuples=None):
    return PlueckerMatrix(
        b.n,
        list(b.row_tuples),
        list(b.col_tuples) if col_tuples is None else col_tuples,
        list(b.row_supports) if supports is None else supports,
    )


def literal_decompose(b):
    """decompose one class at a time, in any order of the labels: claim
    the columns each class touches, in first-seen order of the free
    parts, then run verify_block_equiv on its block. Returns (blocks,
    zero columns)."""
    n, supports = b.n, b.row_supports

    def lows(t):
        return tuple(p.low for p in split_free_pairs(t, n).pairs)

    classes = {}
    for i, t in enumerate(b.row_tuples):
        classes.setdefault(split_free_pairs(t, n).free, []).append(i)
    owner = [None] * len(b.col_tuples)
    blocks = []
    for free, rows_idx in classes.items():
        m = n - len(free)
        col_idx = sorted({j for i in rows_idx for j in supports[i]})
        for j in col_idx:
            if owner[j] is not None:
                raise DecompositionError(
                    f"column {b.col_tuples[j]} is claimed by the blocks of free parts {owner[j]} and {free}"
                )
            owner[j] = free
        col_pos = {j: k for k, j in enumerate(col_idx)}
        mat = IncidenceMatrix(
            m,
            BinaryMatrix(len(rows_idx), len(col_idx), [[col_pos[j] for j in supports[i]] for i in rows_idx]),
            tuple(lows(b.row_tuples[i]) for i in rows_idx),
            tuple(lows(b.col_tuples[j]) for j in col_idx),
        )
        verify_block_equiv(mat, incidence_matrix(m))
        blocks.append(Block(free, m, tuple(b.row_tuples[i] for i in rows_idx), tuple(b.col_tuples[j] for j in col_idx), mat))
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


def rejection(bad):
    """The DecompositionError decompose raises on bad, None if it accepts bad."""
    try:
        decompose(bad)
    except DecompositionError as exc:
        return exc
    return None


TUPLE = r"(\([\d, ]*\))"
WITNESSES = {
    "label": re.compile(rf"(row|column) (\d+) is labelled {TUPLE}, expected {TUPLE} in the canonical order"),
    "count": re.compile(r"(\d+) (row|column) labels, expected (\d+)"),
    "one": re.compile(rf"the one at row {TUPLE}, column {TUPLE} lies outside its class"),
    "bit": re.compile(rf"bit mismatch at block row {TUPLE}, column {TUPLE}"),
}


def witness(bad):
    """The kind of witness decompose names for bad, after checking that it
    holds: a label that differs from B(n)'s where every earlier one
    agrees, or label counts where one list is a prefix of the other; a
    one of bad that B(n) lacks, its row and column in different classes;
    or an entry of some class's block, named by pair lows, that differs
    between bad and B(n). None when decompose accepts bad."""
    exc = rejection(bad)
    if exc is None:
        return None
    message, n = str(exc), bad.n
    b = bmatrix(n)
    kind, match = next((kind, m) for kind, pattern in WITNESSES.items() if (m := pattern.fullmatch(message)))
    if kind in ("label", "count"):
        axis = match[1] if kind == "label" else match[2]
        got, want = (bad.row_tuples, b.row_tuples) if axis == "row" else (bad.col_tuples, b.col_tuples)
        if kind == "label":
            k = int(match[2])
            assert got[:k] == want[:k] and got[k] == ast.literal_eval(match[3]) != want[k] == ast.literal_eval(match[4])
        else:
            assert (len(got), len(want)) == (int(match[1]), int(match[3])) and len(got) != len(want)
            assert got[: len(want)] == want[: len(got)]
        return kind
    assert bad.row_tuples == b.row_tuples and bad.col_tuples == b.col_tuples
    row, col = ast.literal_eval(match[1]), ast.literal_eval(match[2])
    if kind == "one":
        i, j = bad.row_tuples.index(row), bad.col_tuples.index(col)
        assert (j in bad.row_supports[i], j in b.row_supports[i]) == (True, False)
        assert split_free_pairs(row, n).free != split_free_pairs(col, n).free
        return kind
    assert type(exc) is BlockEquivalenceError
    row_pos = {t: i for i, t in enumerate(b.row_tuples)}
    col_pos = {t: j for j, t in enumerate(b.col_tuples)}

    def member(free, lows):
        t = tuple(sorted(free + lows + tuple(2 * n + 1 - x for x in lows)))
        return t if len(set(t)) == len(t) and split_free_pairs(t, n).free == free else None

    differing = [
        free
        for free in row_partition(n)
        if (i := row_pos.get(member(free, row))) is not None
        and (j := col_pos.get(member(free, col))) is not None
        and (j in bad.row_supports[i]) != (j in b.row_supports[i])
    ]
    assert differing, message
    return kind


def same_verdict(bad):
    """decompose rejects bad exactly when literal_decompose does, with a
    witness that holds; the kind of that witness, None on acceptance."""
    kind = witness(bad)
    try:
        literal_decompose(bad)
    except DecompositionError:
        assert kind is not None
    else:
        assert kind is None
        assert outcome(decompose, bad) == outcome(literal_decompose, bad)
    return kind


class TestDirectSum:
    def test_column_claimed_by_two_blocks(self):
        # the first class, free part (1, 2), owns the column (1, 2, 3, 6);
        # a row of the class with free part (1, 3) claims it as well: a one
        # outside its class
        b = bmatrix(4)
        shared = b.col_tuples.index((1, 2, 3, 6))
        supports = list(b.row_supports)
        row = b.row_tuples.index((1, 3))
        supports[row] = tuple(sorted(supports[row] + (shared,)))
        bad = corrupted(b, supports=supports)
        with pytest.raises(DecompositionError, match=r"^the one at row \(1, 3\), column \(1, 2, 3, 6\) lies outside its class$"):
            decompose(bad)
        assert same_verdict(bad) == "one"

    def test_widths_and_zero_columns_must_fill_the_columns(self):
        b = bmatrix(4)
        extra = corrupted(b, col_tuples=list(b.col_tuples) + [(1, 2, 3, 4)])
        with pytest.raises(DecompositionError, match="^71 column labels, expected 70$"):
            decompose(extra)
        assert same_verdict(extra) == "count"

    def test_n7_column_split(self):
        dec = decompose(bmatrix(7))
        assert (sum(len(blk.col_tuples) for blk in dec.blocks), len(dec.zero_columns)) == (3304, 128)


class TestArrayDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_the_block_by_block_oracle(self, n):
        # Block equality compares every field: labels, tuples, the block's
        # ones and labels
        assert outcome(decompose, bmatrix(n)) == outcome(literal_decompose, bmatrix(n))

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("change", ["add", "drop", "move"])
    def test_corrupted_row_fails_as_the_oracle_does(self, n, change):
        # one entry added, dropped or moved in one row at a time: decompose
        # rejects exactly when the block-by-block run does, naming a
        # witness that holds
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
            kinds.add(same_verdict(bad))
        # none passes; a dropped one stays inside its class
        assert None not in kinds and (kinds == {"bit"}) == (change == "drop"), kinds

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_corruptions_fail_as_the_oracle_does(self, n):
        # 300 seeded corruptions per n, each of one to three ones added,
        # dropped or moved anywhere in B(n)
        b = bmatrix(n)
        rng = random.Random(f"fuzz-{n}")
        kinds = set()
        for _ in range(300):
            supports = [set(s) for s in b.row_supports]
            for _ in range(rng.randint(1, 3)):
                change, i = rng.choice(["add", "drop", "move"]), rng.randrange(b.rows)
                if change in ("drop", "move") and supports[i]:
                    supports[i].discard(rng.choice(sorted(supports[i])))
                if change in ("add", "move"):
                    supports[i].add(rng.randrange(b.cols))
            kinds.add(same_verdict(corrupted(b, supports=[tuple(sorted(s)) for s in supports])))
        assert {"one", "bit"} <= kinds, kinds

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_arrays_accept_b_without_the_oracle(self, n):
        assert sum(decompose(bmatrix(n)).counts.values()) == len(row_partition(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_swapped_column_labels_name_the_first_moved_label(self, n):
        # two column tuples trade places: decompose names the first of the
        # two, whatever the class-by-class run makes of the labels
        b = bmatrix(n)
        rng = random.Random(n)
        for _ in range(60):
            j, k = sorted(rng.sample(range(b.cols), 2))
            cols = list(b.col_tuples)
            cols[j], cols[k] = cols[k], cols[j]
            bad = corrupted(b, col_tuples=cols)
            assert outcome(decompose, bad) == (
                DecompositionError, f"column {j} is labelled {cols[j]}, expected {cols[k]} in the canonical order"
            )
            assert witness(bad) == "label"

    @pytest.mark.parametrize("n", [4, 5])
    def test_missing_row_fails_as_the_oracle_does(self, n):
        # a class one row short still touches all its columns when m >= 4
        b = bmatrix(n)
        for i in range(0, b.rows, 3):
            bad = PlueckerMatrix(n, b.row_tuples[:i] + b.row_tuples[i + 1 :], list(b.col_tuples),
                                 b.row_supports[:i] + b.row_supports[i + 1 :])
            assert same_verdict(bad) in ("label", "count"), i

    def test_extra_column_in_a_class(self):
        # a zero column of B(4) takes the tuple (1, 2, 7, 8), and the row
        # (1, 8) moves its one there: every row still fits L(4), but the
        # class of free part () has 7 columns, and the zero column's label
        # is out of place
        b = bmatrix(4)
        j, z = b.col_tuples.index((1, 2, 7, 8)), b.col_tuples.index(next(iter(decompose(b).zero_columns)))
        cols = list(b.col_tuples)
        cols[z] = cols[j]
        i = b.row_tuples.index((1, 8))
        supports = list(b.row_supports)
        supports[i] = tuple(sorted(z if c == j else c for c in supports[i]))
        bad = corrupted(b, supports=supports, col_tuples=cols)
        assert outcome(decompose, bad) == (
            DecompositionError, f"column {z} is labelled (1, 2, 7, 8), expected {b.col_tuples[z]} in the canonical order"
        )
        assert same_verdict(bad) == "label"

    def test_two_columns_with_one_label_in_a_class(self):
        # In B(6) the classes with free parts F = (5, 6) and G = (5, 7) both
        # sit on the pairs with lows 1..4. F takes G's columns labelled
        # (1, 2) and (3, 4) for its own (1, 3) and (2, 4), G the reverse,
        # and their rows are rewired so that each still has r = 3 ones, all
        # at columns whose labels contain its own. Class by class, only the
        # check that no two columns of a class share a label can tell; on
        # the canonical labels, the first such one lies outside its class.
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
        assert outcome(literal_decompose, bad) == (BlockEquivalenceError, "two block columns carry the same label")
        assert outcome(decompose, bad) == (
            DecompositionError, f"the one at row {tup(F, (1,))}, column {tup(G, (1, 2))} lies outside its class"
        )
        assert same_verdict(bad) == "one"

    def test_census_and_rank_build_no_blocks(self):
        dec = decompose(bmatrix(7))
        assert dec.census() == {"L4": 14, "L3": 280, "L2": 672}
        assert dec.rank(QQ) == comb(14, 5)
        assert "blocks" not in vars(dec)
        assert len(dec.blocks) == sum(dec.counts.values()) == 966
        assert dec.blocks is dec.blocks


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_every_block_is_its_member_as_it_stands(self, n, monkeypatch):
        # in the order build_plucker_matrix gives, verify_block_equiv
        # carries each block onto its L(m) by the identity
        monkeypatch.setattr(lgplucker.frlc, "BUILD_CAP", 8)
        dec = decompose(build_plucker_matrix(n))
        assert len(dec.blocks) == len(row_partition(n))
        for blk in dec.blocks:
            ref = incidence_matrix(blk.m)
            assert verify_block_equiv(blk.matrix, ref) == identity(ref)
            assert blk.matrix == IncidenceMatrix(blk.m, ref, blk.matrix.row_labels, blk.matrix.col_labels)

    @pytest.mark.parametrize("n", [4, 5])
    def test_shuffled_labels_name_the_first_label_out_of_place(self, n):
        # rows and columns shuffled together with their labels: B is the
        # same matrix, which the class-by-class run accepts, but not in the
        # canonical order, so decompose names the first row out of place;
        # with the rows in place, the first column out of place
        b = bmatrix(n)
        rng = random.Random(n)
        rows, cols = rng.sample(range(b.rows), b.rows), rng.sample(range(b.cols), b.cols)
        place = {j: k for k, j in enumerate(cols)}
        for kind, order, moved, canonical in (("row", rows, rows, b.row_tuples), ("column", range(b.rows), cols, b.col_tuples)):
            shuffled = PlueckerMatrix(
                n, [b.row_tuples[i] for i in order], [b.col_tuples[j] for j in cols],
                [sorted(place[j] for j in b.row_supports[i]) for i in order],
            )
            literal_decompose(shuffled)
            k = next(k for k, i in enumerate(moved) if k != i)
            assert outcome(decompose, shuffled) == (
                DecompositionError,
                f"{kind} {k} is labelled {canonical[moved[k]]}, expected {canonical[k]} in the canonical order",
            )
            assert witness(shuffled) == "label"

    def test_one_moved_to_its_place_in_another_class(self):
        # a one of the first L3 block of B(5) moves to the column at the
        # same place in the second: every block keeps its CSR arrays, and
        # only the check that each one stays inside its class can tell
        b = bmatrix(5)
        first, second = [blk for blk in decompose(b).blocks if blk.m == 4][:2]
        col = {t: j for j, t in enumerate(b.col_tuples)}
        x = first.matrix.row_supports[0][0]
        old, new = col[first.col_tuples[x]], col[second.col_tuples[x]]
        i = b.row_tuples.index(first.row_tuples[0])
        supports = list(b.row_supports)
        supports[i] = tuple(sorted(new if j == old else j for j in supports[i]))
        bad = corrupted(b, supports=supports)
        assert outcome(decompose, bad) == (
            DecompositionError, f"the one at row {first.row_tuples[0]}, column {second.col_tuples[x]} lies outside its class"
        )
        assert same_verdict(bad) == "one"

    def test_one_moved_inside_its_class(self):
        # row (1, 8) of B(4) trades its one at (1, 4, 5, 8) for one at
        # (2, 3, 6, 7) of its own class: every one stays inside its class
        # and every row keeps its weight; only the comparison with L(4)'s
        # arrays can tell
        b = bmatrix(4)
        col = {t: j for j, t in enumerate(b.col_tuples)}
        i = b.row_tuples.index((1, 8))
        supports = list(b.row_supports)
        supports[i] = tuple(sorted(col[2, 3, 6, 7] if j == col[1, 4, 5, 8] else j for j in supports[i]))
        bad = corrupted(b, supports=supports)
        got = outcome(decompose, bad)
        assert got == outcome(literal_decompose, bad)
        assert got[0] is BlockEquivalenceError and got[1].startswith("bit mismatch at block row (1,)")
        assert same_verdict(bad) == "bit"

    def test_blocks_check_nothing_again(self, monkeypatch):
        # decompose groups B's labels once; .blocks only slices that order
        grouped = []
        direct_sum = lgplucker.blocks._direct_sum
        monkeypatch.setattr(lgplucker.blocks, "_direct_sum", lambda *args: grouped.append(1) or direct_sum(*args))
        dec = decompose(bmatrix(7))
        assert grouped == [1]

        def checked_again(*args):
            raise AssertionError("a check ran again")

        for name in ("_direct_sum", "_check_labels", "_block_mismatch", "incidence_matrix", "check_regularity"):
            monkeypatch.setattr(lgplucker.blocks, name, checked_again)
        assert len(dec.blocks) == 966
        assert dec.census() == {"L4": 14, "L3": 280, "L2": 672}


class TestPerProcessTables:
    """What m and n alone fix is built once per process and shared; what
    a given B could get wrong is still checked on every call."""

    def test_atlas_member_built_once_and_shared(self):
        assert incidence_matrix(6) is incidence_matrix(6)
        assert atlas(7)[0] is incidence_matrix(6)
        # every block's arrays are those of the shared member
        blks = decompose(bmatrix(7)).blocks
        assert {blk.m for blk in blks} == {6, 4, 2}
        assert all(np.shares_memory(blk.matrix.indices, incidence_matrix(blk.m).indices) for blk in blks)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_shared_member_is_read_only(self, m):
        mat = incidence_matrix(m)
        for a in (mat.indptr, mat.indices):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert type(mat.row_labels) is tuple and type(mat.col_labels) is tuple
        assert mat == literal_incidence_matrix(m)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_class_table_is_read_only_and_groups_as_dicts_do(self, n):
        t = lgplucker.blocks._class_table(n)
        assert lgplucker.blocks._class_table(n) is t
        for a in (t.rows, t.cols, t.row_cls, t.col_cls, t.local, t.row_m):
            assert not a.flags.writeable
        # the oracle: free parts as dict keys, numbered in first-seen order
        b = bmatrix(n)
        classes = {}
        for t_row in b.row_tuples:
            classes.setdefault(split_free_pairs(t_row, n).free, len(classes))
        assert t.row_cls.tolist() == [classes[split_free_pairs(x, n).free] for x in b.row_tuples]
        assert t.col_cls.tolist() == [classes.get(split_free_pairs(x, n).free, len(classes)) for x in b.col_tuples]
        assert t.m == [n - len(free) for free in classes]

    def test_warm_tables_still_check_each_b(self):
        # after a good decompose(B(5)) the tables are warm; a B(5) whose
        # row (1, 2, 9), in an L(4) block, drops its first 1 still fails the
        # array checks, which name the entry the class-by-class run names
        b = bmatrix(5)
        decompose(b)
        supports = list(b.row_supports)
        i = b.row_tuples.index((1, 2, 9))
        supports[i] = supports[i][1:]
        bad = corrupted(b, supports=supports)
        got = outcome(decompose, bad)
        assert got == outcome(literal_decompose, bad)
        assert got == (BlockEquivalenceError, "bit mismatch at block row (2,), column (2, 3)")
        assert outcome(decompose, b) == outcome(literal_decompose, b)


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11, 2147483647])
@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_atlas_rank_matches_wilson(m, p):
    # elimination of L(m) is the oracle of the closed form
    mat = incidence_matrix(m)
    assert lgplucker.blocks._atlas_rank(m, p) == rank(mat.to_exact(QQ if p == 0 else GF(p)))
