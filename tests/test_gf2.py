"""Packed GF(2) matrices, rank, row bases, and the fitting predicate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from minrank import Graph, BitMatrix, rank_gf2, fits
from minrank.gf2 import RowBasis
import oracles


def to_lists(m: BitMatrix) -> list[list[int]]:
    return [[(m.data[i] >> j) & 1 for j in range(m.cols)] for i in range(m.rows)]


def test_matrix_construction_round_trip():
    m = BitMatrix.from_strings(["101", "010"])
    assert m.rows == 2 and m.cols == 3
    assert (m.data[0] >> 2) & 1 == 1 and (m.data[1] >> 2) & 1 == 0
    assert m.to_strings() == ["101", "010"]
    assert BitMatrix.from_rows([[1, 0, 1], [0, 1, 0]]).to_strings() == ["101", "010"]


def test_construction_rejects_garbage():
    with pytest.raises(ValueError):
        BitMatrix.from_strings(["10", "1"])
    with pytest.raises(ValueError):
        BitMatrix.from_strings(["1x"])
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b100,))  # bit outside declared width
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (0b11,))  # row count mismatch


def test_identity_and_block_diagonal():
    assert rank_gf2(BitMatrix.identity(7)) == 7
    a = BitMatrix.from_strings(["11", "11"])
    b = BitMatrix.from_strings(["1"])
    big = BitMatrix.block_diagonal([a, b], [[0, 1], [2]])
    assert big.to_strings() == ["110", "110", "001"]
    scattered = BitMatrix.block_diagonal([a, b], [[0, 2], [1]])
    assert scattered.to_strings() == ["101", "010", "101"]


def test_rank_matches_naive_oracle():
    rng = random.Random(200)
    for _ in range(250):
        r = rng.randint(0, 8)
        c = rng.randint(1, 8)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        packed = BitMatrix(r, c, tuple(
            sum(b << j for j, b in enumerate(row)) for row in rows
        ))
        assert rank_gf2(packed) == oracles.naive_rank(rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8), st.integers(0, 7))
def test_rank_stable_under_row_xor(rows, idx):
    """Adding one row into another never changes the row space."""
    base = rank_gf2(BitMatrix(len(rows), 8, tuple(rows)))
    i = idx % len(rows)
    j = (idx + 1) % len(rows)
    if i == j:
        return
    mutated = list(rows)
    mutated[i] ^= rows[j]
    assert rank_gf2(BitMatrix(len(rows), 8, tuple(mutated))) == base


def test_row_basis_tracks_rank():
    rng = random.Random(201)
    for _ in range(60):
        basis = RowBasis(10)
        vectors = [rng.getrandbits(10) for _ in range(12)]
        inserted = 0
        for v in vectors:
            if basis.insert(v):
                inserted += 1
        rows = [[v >> j & 1 for j in range(10)] for v in vectors]
        assert inserted == oracles.naive_rank(rows)
        assert basis.size == inserted


def test_row_basis_residual_add_drop():
    basis = RowBasis(3)
    basis.insert(0b011)
    basis.insert(0b100)
    # residual of a spanned vector is zero
    assert basis.residual(0b111) == 0
    res = basis.residual(0b010)
    assert res != 0
    basis.add_residual(res)
    assert basis.residual(0b010) == 0
    basis.drop_residual(res)
    assert basis.residual(0b010) != 0
    # copies evolve independently
    twin = basis.copy()
    twin.insert(0b010)
    assert twin.size == basis.size + 1


def test_fits_semantics(example1):
    assert fits(BitMatrix.identity(5), example1)
    # asymmetric edge use is allowed: row 0 may use column 1 without row 1
    # using column 0
    m = BitMatrix.from_strings(["11000", "01000", "00100", "00010", "00001"])
    assert fits(m, example1)
    # a non-edge entry breaks the fit: 0-3 is not an edge
    bad = BitMatrix.from_strings(["10010", "01000", "00100", "00010", "00001"])
    assert not fits(bad, example1)
    # zero diagonal breaks the fit
    bad2 = BitMatrix.from_strings(["01000", "01000", "00100", "00010", "00001"])
    assert not fits(bad2, example1)


def test_fits_rejects_wrong_shape(example1):
    with pytest.raises(ValueError):
        fits(BitMatrix.identity(4), example1)
