"""Packed GF(2) matrices, rank, and the fitting predicate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from minrank import Graph, BitMatrix, rank_gf2, fits
from minrank.gf2 import reduce_row
from conftest import matrix_from_strings
import oracles


def to_lists(m: BitMatrix) -> list[list[int]]:
    return [[(m.data[i] >> j) & 1 for j in range(m.cols)] for i in range(m.rows)]


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def test_matrix_construction_round_trip():
    m = matrix_from_strings(["101", "010"])
    assert m.rows == 2 and m.cols == 3
    assert (m.data[0] >> 2) & 1 == 1 and (m.data[1] >> 2) & 1 == 0
    assert m.to_strings() == ["101", "010"]


def test_construction_rejects_garbage():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b100,))  # bit outside declared width
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (0b11,))  # row count mismatch


def test_identity_rank():
    assert rank_gf2(identity(7)) == 7


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


def test_reduce_row_decides_span():
    """reduce_row gives 0 exactly on rows in the pivots' span, and otherwise
    a row that differs from x by a sum of pivots and whose leading bit no
    pivot holds."""
    rng = random.Random(201)
    for _ in range(300):
        rows = [rng.randrange(64) for _ in range(rng.randint(0, 5))]
        pivots: dict[int, int] = {}
        for row in rows:
            x = reduce_row(pivots, row)
            if x:
                pivots[x.bit_length() - 1] = x
        span = {0}
        for row in rows:
            span |= {s ^ row for s in span}
        for x in range(64):
            y = reduce_row(pivots, x)
            assert (y == 0) == (x in span)
            assert x ^ y in span
            if y:
                assert y.bit_length() - 1 not in pivots


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


def test_fits_semantics(example1):
    assert fits(identity(5), example1)
    # asymmetric edge use is allowed: row 0 may use column 1 without row 1
    # using column 0
    m = matrix_from_strings(["11000", "01000", "00100", "00010", "00001"])
    assert fits(m, example1)
    # a non-edge entry breaks the fit: 0-3 is not an edge
    bad = matrix_from_strings(["10010", "01000", "00100", "00010", "00001"])
    assert not fits(bad, example1)
    # zero diagonal breaks the fit
    bad2 = matrix_from_strings(["01000", "01000", "00100", "00010", "00001"])
    assert not fits(bad2, example1)


def test_fits_rejects_wrong_shape(example1):
    with pytest.raises(ValueError):
        fits(identity(4), example1)
