"""Dense GF(2) matrices stored as packed integer rows, with incremental rank.

Row i is one Python int; bit j holds entry (i, j).  Rank maintenance uses
an XOR basis keyed by leading bit, so search code can grow and shrink the
basis one row at a time.
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

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        """Build from an iterable of 0/1 entry sequences."""
        packed = []
        width = 0
        for row in rows:
            row = list(row)
            width = max(width, len(row))
            packed.append(sum((1 << j) for j, x in enumerate(row) if x))
        return cls(len(packed), width, tuple(packed))

    @classmethod
    def from_strings(cls, lines) -> "BitMatrix":
        """Build from rows of '0'/'1' characters (the text certificate format)."""
        packed = []
        width = None
        for line in lines:
            line = line.strip()
            if width is None:
                width = len(line)
            elif len(line) != width:
                raise ValueError("ragged rows in matrix text")
            if set(line) - {"0", "1"}:
                raise ValueError(f"bad matrix text row {line!r}")
            packed.append(sum(1 << j for j, c in enumerate(line) if c == "1"))
        return cls(len(packed), width or 0, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def block_diagonal(cls, blocks, placements) -> "BitMatrix":
        """Assemble square blocks onto disjoint index sets of a larger square matrix.

        `placements[k][j]` is the global index of local row/column j of block k.
        Unplaced positions stay zero.
        """
        size = 0
        for pl in placements:
            size = max(size, max(pl, default=-1) + 1)
        rows = [0] * size
        for block, pl in zip(blocks, placements):
            if block.rows != block.cols or block.rows != len(pl):
                raise ValueError("block shape does not match placement")
            for j in range(block.rows):
                row = block.data[j]
                out = 0
                while row:
                    b = row & -row
                    out |= 1 << pl[b.bit_length() - 1]
                    row ^= b
                rows[pl[j]] = out
        return cls(size, size, tuple(rows))

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.cols))
            for r in self.data
        ]

    def __str__(self):
        return "\n".join(self.to_strings())


class RowBasis:
    """Incremental GF(2) row space, one stored row per leading bit."""

    __slots__ = ("width", "pivots")

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, int] = {}

    @property
    def size(self) -> int:
        return len(self.pivots)

    def residual(self, row: int) -> int:
        """Reduce a row against the basis; 0 means it is already spanned."""
        while row:
            top = row.bit_length() - 1
            p = self.pivots.get(top)
            if p is None:
                break
            row ^= p
        return row

    def add_residual(self, residual: int) -> None:
        """Store a nonzero residual returned by `residual` for the same basis state."""
        self.pivots[residual.bit_length() - 1] = residual

    def drop_residual(self, residual: int) -> None:
        """Undo the matching `add_residual`."""
        del self.pivots[residual.bit_length() - 1]

    def insert(self, row: int) -> bool:
        """Add a row; True when it enlarged the basis."""
        res = self.residual(row)
        if res == 0:
            return False
        self.add_residual(res)
        return True

    def copy(self) -> "RowBasis":
        b = RowBasis(self.width)
        b.pivots = dict(self.pivots)
        return b


def rank_gf2(m: BitMatrix) -> int:
    """Rank of a packed GF(2) matrix."""
    basis = RowBasis(m.cols)
    for row in m.data:
        basis.insert(row)
    return basis.size


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
