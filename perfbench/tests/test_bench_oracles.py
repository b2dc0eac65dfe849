"""The benchmark's oracles against values measured independently."""

from math import comb

import pytest

import oracles


@pytest.mark.parametrize("n, rank", [(4, 27), (5, 110), (6, 430), (7, 1652)])
def test_gf2_rank_matches_measured(n, rank):
    assert oracles.relation_rank(n, 2) == rank


@pytest.mark.parametrize("n, rank", [(6, 494), (7, 1988)])
def test_gf3_rank_matches_measured(n, rank):
    assert oracles.relation_rank(n, 3) == rank


def test_census_at_seven_has_966_blocks():
    assert sum(oracles.census(7).values()) == 966
    assert oracles.zero_columns(7) == 128


@pytest.mark.parametrize("n", range(2, 8))
def test_census_covers_every_row_and_qq_rank_is_full(n):
    rows, cols = oracles.relation_shape(n)
    assert sum(c * oracles.incidence_shape(m)[0] for m, c in oracles.census(n).items()) == rows
    assert sum(c * oracles.incidence_shape(m)[1] for m, c in oracles.census(n).items()) + oracles.zero_columns(n) == cols
    assert oracles.relation_rank(n, 0) == rows


def test_point_counts():
    assert oracles.lagrangian_count(3, 5) == 19656
    assert oracles.lagrangian_count(4, 2) == 2295


@pytest.mark.parametrize("m", range(2, 13, 2))
def test_incidence_is_regular(m):
    rows, cols = oracles.incidence_shape(m)
    entries = oracles.incidence_entries(m)
    assert oracles.weights(entries, rows, axis=0) == [(m + 2) // 2] * rows
    assert oracles.weights(entries, cols, axis=1) == [m // 2] * cols


def test_relation_entries_match_the_package_build():
    from lgplucker import build_plucker_matrix

    for n in range(2, 6):
        b = build_plucker_matrix(n)
        assert b.shape == oracles.relation_shape(n)
        assert oracles.relation_entries(n) == {(i, j) for i, s in enumerate(b.row_supports) for j in s}


def test_readers_agree_on_one_matrix():
    entries = {(0, 0), (0, 2), (1, 1)}
    coord = "2 3 3\n1 1\n1 3\n2 2\n"
    alist = "3 2\n1 2\n1 1 1\n2 1\n1\n2\n1\n1 3\n2 0\n"
    js = '{"cols": 3, "entries": [[1, 1], [1, 3], [2, 2]], "nnz": 3, "rows": 2}'
    for fmt, text in (("coord", coord), ("alist", alist), ("json", js)):
        assert oracles.READERS[fmt](text) == (2, 3, entries)


def test_alist_reader_rejects_disagreeing_lists():
    with pytest.raises(ValueError):
        oracles.read_alist("3 2\n1 2\n1 1 1\n2 1\n1\n2\n2\n1 3\n2 0\n")


def test_gf2_span():
    basis = oracles.gf2_basis([0b011, 0b110, 0b101])
    assert len(basis) == 2
    assert oracles.gf2_reduce(basis, 0b101) == 0
    assert oracles.gf2_reduce(basis, 0b001) != 0


def test_fraction_helpers():
    assert oracles.fraction_det([[2, 1], [1, 1]]) == 1
    assert oracles.fraction_det([[1, 2], [2, 4]]) == 0
    assert oracles.fraction_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    n = 2
    x, y = [1, 0, 0, 0], [0, 0, 0, 1]
    assert oracles.symplectic_pairing(x, y, n) == 1
    assert oracles.symplectic_pairing(y, x, n) == -1
    assert comb(4, 2) == 6


def test_wedge_identity_catches_any_wrong_coordinate():
    from itertools import combinations

    rows = [[1, 0, 2, -1, 3, 0], [0, 1, -1, 4, 0, 2], [2, 1, 0, 0, 1, 1]]
    coords = {}
    for alpha in combinations(range(1, 7), 3):
        minor = oracles.fraction_det([[r[a - 1] for a in alpha] for r in rows])
        if minor:
            coords[alpha] = minor
    xs = [3, 17, 29, 41, 58, 77]
    assert oracles.wedge_identity_holds(rows, coords, xs)
    for alpha in (min(coords), max(coords)):
        bad = dict(coords)
        bad[alpha] = -bad[alpha]
        assert not oracles.wedge_identity_holds(rows, bad, xs)
