"""Acceptance suite: one test per criterion, exact tolerances, timed caps.

Every check is exact (integer or field equality); the only numeric caps
are wall-clock limits. Each test prints one PASS line on success; a
failure raises with the offending witness.
"""

import itertools
import random
import time
from math import comb

import pytest

from lgplucker import (
    ExactMatrix,
    ExteriorVector,
    GF,
    QQ,
    atlas,
    build_plucker_matrix,
    check_regularity,
    contract,
    contract_vectors,
    coordinate_vector,
    decompose,
    incidence_matrix,
    index_tuples,
    lagrangian_count,
    r_value,
    rank,
    row_space_equal,
    satisfies_plucker_relations,
    vanishing_space,
    wedge,
)
from lgplucker.formats import matrix_data, parse_alist, parse_coord, write_alist, write_coord
from conftest import bmatrix, enumerated_bases, enumerated_points


def _report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {detail}")


def test_c01_matrix_census():
    expected_nnz = {2: 2, 3: 12, 4: 60, 5: 280, 6: 1260}
    t0 = time.perf_counter()
    for n, nnz in expected_nnz.items():
        b = build_plucker_matrix(n)
        assert b.shape == (comb(2 * n, n - 2), comb(2 * n, n)), (n, b.shape)
        assert b.nnz == nnz, (n, b.nnz)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"census took {elapsed:.1f}s"
    _report("C01", f"shapes and nnz {sorted(expected_nnz.values())} in {elapsed:.2f}s")


def test_c02_block_decomposition():
    t0 = time.perf_counter()
    expected = {
        4: ({"L3": 1, "L2": 24}, 16),
        5: ({"L3": 10, "L2": 80}, 32),
        6: ({"L4": 1, "L3": 60, "L2": 240}, 64),
    }
    for n, (census, zeros) in expected.items():
        dec = decompose(bmatrix(n))
        assert dec.census() == census, (n, dec.census())
        assert len(dec.zero_columns) == zeros, (n, len(dec.zero_columns))
        for blk in dec.blocks:
            report = check_regularity(blk.matrix)
            assert report.ok, (n, blk.free, report.failures)
            assert report.max_overlap <= 1
    # even-tuple census: the m = n - 2k member repeats C(n, 2k) * 2^(2k) times
    for n in (4, 6):
        census = decompose(bmatrix(n)).census()
        for k in range(1, (n - 2) // 2 + 1):
            assert census[f"L{r_value(n - 2 * k)}"] == comb(n, 2 * k) * 4**k
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"decomposition took {elapsed:.1f}s"
    _report(
        "C02",
        "n=4: 1xL3+24xL2/16 zero; n=5: 10xL3+80xL2 (odd-case multiplicity 2n, logged); "
        f"n=6: 1xL4+60xL3+240xL2/64 zero; all blocks regular; {elapsed:.2f}s",
    )


def test_c03_point_counts():
    cases = {(1, 2): 3, (2, 2): 15, (2, 3): 40, (2, 5): 156, (3, 2): 135, (3, 3): 1120}
    t33 = None
    for (n, q), expected in cases.items():
        assert lagrangian_count(n, q) == expected, (n, q)
        t0 = time.perf_counter()
        observed = len(enumerated_bases(n, q))
        elapsed = time.perf_counter() - t0
        assert observed == expected, (n, q, observed)
        if (n, q) == (3, 3):
            t33 = elapsed
    assert t33 is not None and t33 < 120, f"(3,3) took {t33}s"
    _report("C03", f"enumeration equals the product formula on {len(cases)} pairs; (3,3) in {t33:.2f}s")


def test_c04_defining_equations():
    for n, q in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        b = bmatrix(n)
        for w in enumerated_points(n, q):
            assert satisfies_plucker_relations(w), (n, q, w)
            assert not any(b.apply(w)), (n, q, w)
    # converse for (2, 2): exhaustive scan of nonzero grade-2 vectors
    field = GF(2)
    b = bmatrix(2)
    cols = b.col_tuples
    solutions = set()
    for bits in itertools.product((0, 1), repeat=len(cols)):
        if not any(bits):
            continue
        w = ExteriorVector(2, 2, field, dict(zip(cols, bits)))
        if satisfies_plucker_relations(w) and not any(b.apply(w)):
            solutions.add(tuple(coordinate_vector(w)))
    points = {tuple(coordinate_vector(w)) for w in enumerated_points(2, 2)}
    assert solutions == points
    assert len(solutions) == 15
    _report("C04", "all enumerated points satisfy Q and B v = 0; the 63-vector scan over GF(2) recovers exactly the 15 points")


def test_c05_minimality():
    expected_dims = {(2, 2): 1, (2, 3): 1, (3, 2): 6, (3, 3): 6}
    for (n, q), dim in expected_dims.items():
        field = GF(q)
        basis = vanishing_space(enumerated_points(n, q), field)
        assert len(basis) == dim, (n, q, len(basis))
        cols = index_tuples(n, 2 * n)
        m = ExactMatrix.from_rows([[h.coeffs.get(t, 0) for t in cols] for h in basis], field)
        assert row_space_equal(m, bmatrix(n).to_exact(field)), (n, q)
    _report("C05", "vanishing-space dimensions 1, 1, 6, 6 and row spaces equal to the relation rows")


def _gf2_rank_bitset(b) -> int:
    """Independent GF(2) rank oracle on int bitmasks."""
    rows = []
    for support in b.row_supports:
        mask = 0
        for j in support:
            mask |= 1 << j
        rows.append(mask)
    rank_count = 0
    ncols = b.shape[1]
    for col in range(ncols):
        piv = None
        for r in range(rank_count, len(rows)):
            if (rows[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            continue
        rows[rank_count], rows[piv] = rows[piv], rows[rank_count]
        for r in range(len(rows)):
            if r != rank_count and ((rows[r] >> col) & 1):
                rows[r] ^= rows[rank_count]
        rank_count += 1
    return rank_count


def test_c06_characteristic_criterion():
    full = {4: [(0, QQ), (3, GF(3)), (5, GF(5))], 5: [(0, QQ), (5, GF(5))]}
    deficient = {4: 27, 5: 110}
    for n, fields in full.items():
        expected = comb(2 * n, n - 2)
        for _, field in fields:
            assert rank(bmatrix(n).to_exact(field)) == expected, (n, field)
    lines = []
    for n, frozen in deficient.items():
        b = bmatrix(n)
        r_elim = rank(b.to_exact(GF(2)))
        r_oracle = _gf2_rank_bitset(b)
        expected = comb(2 * n, n - 2)
        assert r_elim == r_oracle == frozen, (n, r_elim, r_oracle)
        assert r_elim < expected
        lines.append(f"n={n}: GF(2) rank {r_elim}, deficiency {expected - r_elim}")
    _report("C06", "full rank over QQ/GF(3)/GF(5) as required; " + "; ".join(lines))


def test_c07_commuting_square():
    rng = random.Random(2024)
    checked = 0
    for n in (2, 3, 4):
        b = bmatrix(n)
        for field in (QQ, GF(5)):
            for _ in range(500):
                coords = {}
                for t in rng.sample(b.col_tuples, min(8, len(b.col_tuples))):
                    coords[t] = rng.randint(-6, 6)
                w = ExteriorVector(n, n, field, coords)
                assert b.apply(w) == coordinate_vector(contract(w))
                checked += 1
    _report("C07", f"matrix application equals contraction coordinates on {checked} random tensors")


def test_c08_contraction_oracles():
    rng = random.Random(77)
    checked = 0
    for n in (2, 3, 4):
        for field in (QQ, GF(5)):
            for _ in range(100):
                vecs = [[rng.randint(-4, 4) for _ in range(2 * n)] for _ in range(n)]
                assert contract(wedge(vecs, n, field)) == contract_vectors(vecs, n, field)
                checked += 1
    _report("C08", f"coordinate contraction equals the term-by-term definition on {checked} decomposables")


def test_c09_atlas_sharing():
    a4, a5 = atlas(4), atlas(5)
    assert len(a4) == len(a5)
    for x, y in zip(a4, a5):
        assert x == y
    _report("C09", "atlas(4) and atlas(5) are bit-identical")


def test_c10_format_round_trips():
    targets = [incidence_matrix(m) for m in (2, 4, 6, 8)]
    targets += [bmatrix(n) for n in (2, 3, 4, 5)]
    for obj in targets:
        data = matrix_data(obj)
        for writer, parser in ((write_alist, parse_alist), (write_coord, parse_coord)):
            text = writer(data)
            assert parser(text) == data
            assert writer(parser(text)) == text
    _report("C10", f"alist and coordinate serializations round-trip bit-exactly on {len(targets)} matrices")
