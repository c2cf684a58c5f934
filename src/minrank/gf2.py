"""Dense GF(2) matrices stored as packed integer rows.

Row i is one Python int; bit j holds entry (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitMatrix:
    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        limit = 1 << self.cols
        for i, r in enumerate(self.data):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} has bits outside {self.cols} columns")

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.cols))
            for r in self.data
        ]


def reduce_row(pivots: dict[int, int], x: int) -> int:
    """Row x reduced against `pivots` (rows keyed by leading bit): 0 when x
    lies in their span, else a row whose leading bit no pivot holds."""
    while x:
        p = pivots.get(x.bit_length() - 1)
        if p is None:
            return x
        x ^= p
    return 0


def rank_gf2(m: BitMatrix) -> int:
    """Rank of a packed GF(2) matrix, by an XOR basis keyed by leading bit."""
    pivots: dict[int, int] = {}
    for row in m.data:
        x = reduce_row(pivots, row)
        if x:
            pivots[x.bit_length() - 1] = x
    return len(pivots)


def fits(m: BitMatrix, g) -> bool:
    """Whether a square matrix fits a graph.

    Fitting means every diagonal entry is 1 and every off-diagonal entry at
    a non-adjacent pair is 0; entries at edges are unconstrained, and the
    matrix need not be symmetric.
    """
    if m.rows != m.cols:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, not square")
    if m.rows != g.n:
        raise ValueError(f"matrix order {m.rows} does not match graph order {g.n}")
    bits = g.adjacency_bits()
    for v in range(g.n):
        row = m.data[v]
        if not (row >> v) & 1:
            return False
        if row & ~(bits[v] | (1 << v)):
            return False
    return True
