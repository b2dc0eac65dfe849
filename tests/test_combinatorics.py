from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lgplucker.combinatorics import join_ranks, paired_entries, tuple_array
from lgplucker import (
    FreePairSplit,
    Pair,
    index_tuples,
    pair_of,
    sorting_sign,
    split_free_pairs,
    tuple_rank,
)
from conftest import binomials, row_partition, tuple_masks


def tuple_unrank(r, length, bound):
    """Inverse of tuple_rank, one position at a time: the index tuple at
    lexicographic position r, the oracle of the round trips below."""
    if length < 0 or length > bound:
        raise ValueError(f"length {length} out of range for bound {bound}")
    total = comb(bound, length)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {total})")
    out = []
    c = 1
    for pos in range(length):
        while True:
            block = comb(bound - c, length - pos - 1)
            if r < block:
                break
            r -= block
            c += 1
        out.append(c)
        c += 1
    return tuple(out)


class TestIndexTuples:
    def test_two_of_four(self):
        ts = index_tuples(2, 4)
        assert len(ts) == 6
        assert ts[0] == (1, 2)
        assert ts[-1] == (3, 4)

    def test_empty_tuple_convention(self):
        assert index_tuples(0, 4) == [()]

    def test_two_of_eight(self):
        assert len(index_tuples(2, 8)) == 28

    def test_length_exceeding_bound(self):
        with pytest.raises(ValueError):
            index_tuples(5, 4)

    def test_lexicographic(self):
        ts = index_tuples(3, 6)
        assert ts == sorted(ts)


class TestRankUnrank:
    def test_first_element(self):
        assert tuple_rank((1, 2), 4) == 0
        assert tuple_unrank(0, 2, 4) == (1, 2)

    def test_last_of_six(self):
        assert tuple_rank((3, 4), 4) == 5

    def test_round_trip_exhaustive(self):
        for r, t in enumerate(index_tuples(4, 12)):
            assert tuple_rank(t, 12) == r
            assert tuple_unrank(r, 4, 12) == t

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            tuple_unrank(6, 2, 4)
        with pytest.raises(ValueError):
            tuple_unrank(-1, 2, 4)

    def test_invalid_tuple(self):
        with pytest.raises(ValueError):
            tuple_rank((2, 2), 4)
        with pytest.raises(ValueError):
            tuple_rank((1, 5), 4)

    @given(st.data())
    def test_round_trip_property(self, data):
        m = data.draw(st.integers(min_value=1, max_value=14))
        k = data.draw(st.integers(min_value=0, max_value=m))
        r = data.draw(st.integers(min_value=0, max_value=comb(m, k) - 1))
        t = tuple_unrank(r, k, m)
        assert tuple_rank(t, m) == r


class TestSortingSign:
    def test_sorted_word(self):
        assert sorting_sign((1, 2, 6)) == 1

    def test_one_swap(self):
        assert sorting_sign((2, 1, 6)) == -1

    def test_duplicates_vanish(self):
        assert sorting_sign((3, 3)) == 0


class TestPairs:
    def test_low_pair_n2(self):
        assert pair_of(1, 2) == Pair(1, 4)

    def test_high_member_n2(self):
        assert pair_of(2, 2) == Pair(2, 3)

    def test_middle_n5(self):
        assert pair_of(5, 5) == Pair(5, 6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pair_of(0, 3)
        with pytest.raises(ValueError):
            pair_of(7, 3)

    def test_partner_projection(self):
        for n in (2, 3, 5):
            for i in range(1, 2 * n + 1):
                p = pair_of(i, n)
                assert p.low + p.high == 2 * n + 1
                assert p == pair_of(2 * n + 1 - i, n)


class TestFreePairSplit:
    def test_complete_pair(self):
        got = split_free_pairs((1, 8), 4)
        assert got == FreePairSplit((), (Pair(1, 8),))

    def test_no_pair(self):
        got = split_free_pairs((1, 2), 4)
        assert got == FreePairSplit((1, 2), ())

    def test_two_pairs_n5(self):
        got = split_free_pairs((1, 2, 9, 10), 5)
        assert got.free == ()
        assert got.pairs == (Pair(1, 10), Pair(2, 9))

    def test_rebuild_round_trip(self):
        for n, k in ((4, 2), (5, 3), (3, 3)):
            for t in index_tuples(k, 2 * n):
                assert split_free_pairs(t, n).rebuild() == t

    def test_injective(self):
        seen = {}
        for t in index_tuples(2, 8):
            label = split_free_pairs(t, 4)
            assert label not in seen
            seen[label] = t


class TestArrayForms:
    @pytest.mark.parametrize("n, k", [(1, 0), (2, 2), (3, 3), (4, 2), (5, 5)])
    def test_paired_entries_match_split_free_pairs(self, n, k):
        tuples = index_tuples(k, 2 * n)
        arr = tuple_array(tuples, k)
        assert arr.shape == (len(tuples), k) and arr.tolist() == [list(t) for t in tuples]
        for t, row in zip(tuples, paired_entries(arr, n).tolist()):
            paired = {x for p in split_free_pairs(t, n).pairs for x in p}
            assert row == [x in paired for x in t]

    def test_binomials_rank_like_tuple_rank(self):
        # the closed form the oracles of build_plucker_matrix,
        # incidence_matrix and laplace_table rank by
        table = binomials(11)
        assert table.tolist() == [[comb(a, b) for b in range(11)] for a in range(11)]
        for t in index_tuples(4, 10):
            closed = table[10, 4] - 1 - sum(table[10 - c, 4 - q] for q, c in enumerate(t))
            assert closed == tuple_rank(t, 10)


class TestJoinRanks:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_lexicographic_order_is_descending_mask_order(self, m):
        for k in range(m + 1):
            masks = tuple_masks(index_tuples(k, m), m)
            assert (np.diff(masks) < 0).all()

    @pytest.mark.parametrize("m", range(1, 13))
    def test_single_entries_against_tuple_rank(self, m):
        # every tuple of length k + 1 is some k-tuple joined with one entry
        for k in range(m):
            short, long = index_tuples(k, m), index_tuples(k + 1, m)
            got = join_ranks(tuple_masks(short, m), tuple_masks(long, m), 1 << (m - np.arange(1, m + 1)))
            assert got.shape == (len(short), m)
            want = [
                [-1 if x in t else tuple_rank(tuple(sorted(t + (x,))), m) for x in range(1, m + 1)] for t in short
            ]
            assert got.tolist() == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairs_against_tuple_rank(self, n):
        m = 2 * n
        pairs = [(i, m + 1 - i) for i in range(1, n + 1)]
        for k in range(m - 1):
            short, long = index_tuples(k, m), index_tuples(k + 2, m)
            got = join_ranks(tuple_masks(short, m), tuple_masks(long, m), tuple_masks(pairs, m))
            want = [[-1 if set(p) & set(t) else tuple_rank(tuple(sorted(t + p)), m) for p in pairs] for t in short]
            assert got.tolist() == want


class TestRowPartition:
    def test_n2_single_class(self):
        assert row_partition(2) == {(): [()]}

    def test_n4_census(self):
        classes = row_partition(4)
        assert len(classes) == 25
        sizes = sorted(len(v) for v in classes.values())
        assert sizes == [1] * 24 + [4]
        assert len(classes[()]) == 4
        assert sum(len(v) for v in classes.values()) == comb(8, 2)

    def test_n5_census(self):
        classes = row_partition(5)
        assert len(classes) == 90
        by_free_size = {}
        for free, rows in classes.items():
            by_free_size.setdefault(len(free), []).append(len(rows))
        assert sorted(by_free_size) == [1, 3]
        assert by_free_size[1] == [4] * 10
        assert by_free_size[3] == [1] * 80

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_partition_property(self, n):
        classes = row_partition(n)
        seen = set()
        total = 0
        for rows in classes.values():
            for t in rows:
                assert t not in seen
                seen.add(t)
                total += 1
        assert total == comb(2 * n, n - 2)
