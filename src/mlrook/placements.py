"""File, rook, and m-level rook placements with canonical enumeration.

A *file placement* puts at most one rook per column; rows are free.
Requiring distinct rows gives classical rook placements, and requiring
distinct levels (blocks of m rows) gives m-level rook placements, so
the three kinds nest: m-level rook placements are rook placements are
file placements.

One iterative walker enumerates all of them.  It runs over columns
with a skip branch per column, keeps one (column, row) per placed rook
instead of recursing, so it has no depth limit, and yields placements
in ascending lexicographic order of their sorted (column, row) cells.
Streams are generated lazily.

The m-level rook numbers and the weighted file numbers are one
block-weight sum over all file placements (see ``_block_sums``).  They
are still exhaustive counts: the sum visits every file placement, but
allocates nothing per placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boards import Cell, FerrersBoard, _check_m

__all__ = [
    "FilePlacement",
    "InvalidPlacementError",
    "enumerate_file_placements",
    "enumerate_m_level_rook_placements",
    "is_m_level_rook_placement",
    "is_rook_placement",
    "rook_number",
    "rook_numbers",
]


class InvalidPlacementError(ValueError):
    """A placement repeats a column or leaves the board."""


@dataclass(frozen=True, eq=False)
class FilePlacement:
    """Rooks on a Ferrers board, at most one per column.

    Cells are kept sorted by column.  Equality and hashing look only at
    the occupied cells, so placements with identical rooks on different
    boards compare equal; the board is carried for validation.
    """

    board: FerrersBoard
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        cells = tuple(sorted(Cell(c, r) for c, r in self.cells))
        object.__setattr__(self, "cells", cells)
        prev_col = 0
        for col, row in cells:
            if col == prev_col:
                raise InvalidPlacementError(f"column {col} is occupied twice")
            if not self.board.contains(col, row):
                raise InvalidPlacementError(f"cell {col}:{row} is not on the board")
            prev_col = col

    @classmethod
    def _trusted(cls, board: FerrersBoard, cells: tuple) -> "FilePlacement":
        # walker output: sorted by column, on the board, one rook per column
        placement = object.__new__(cls)
        object.__setattr__(placement, "board", board)
        object.__setattr__(placement, "cells", tuple(map(Cell._make, cells)))
        return placement

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilePlacement):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def occupied(self) -> dict[int, int]:
        """Mapping column -> row of the occupied cells."""
        return {col: row for col, row in self.cells}

    def row_counts(self) -> dict[int, int]:
        """Number of rooks in each occupied row."""
        counts: dict[int, int] = {}
        for _, row in self.cells:
            counts[row] = counts.get(row, 0) + 1
        return counts

    def level_counts(self, m: int) -> dict[int, int]:
        """Number of rooks in each occupied level."""
        _check_m(m)
        counts: dict[int, int] = {}
        for _, row in self.cells:
            level = (row + m - 1) // m
            counts[level] = counts.get(level, 0) + 1
        return counts

    def with_rook(self, column: int, row: int) -> "FilePlacement":
        """New placement with one more rook; the column must be free."""
        return FilePlacement(self.board, self.cells + (Cell(column, row),))

    def without_column(self, column: int) -> "FilePlacement":
        """New placement with the rook of ``column`` removed."""
        kept = tuple(cell for cell in self.cells if cell.column != column)
        if len(kept) == len(self.cells):
            raise ValueError(f"column {column} holds no rook")
        return FilePlacement(self.board, kept)

    def to_string(self) -> str:
        """Text form ``"col:row;col:row"`` sorted by column; empty for no rooks."""
        return _cells_string(self.cells)

    @classmethod
    def from_string(cls, board: FerrersBoard, text: str) -> "FilePlacement":
        text = text.strip()
        if not text:
            return cls(board, ())
        cells = []
        for token in text.split(";"):
            try:
                col_text, row_text = token.split(":")
                cells.append(Cell(int(col_text), int(row_text)))
            except ValueError:
                raise InvalidPlacementError(
                    f"bad placement token {token!r}, expected 'col:row'"
                ) from None
        return cls(board, tuple(cells))

    def __str__(self) -> str:
        return self.to_string()


def _cells_string(cells: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{col}:{row}" for col, row in cells)


def is_m_level_rook_placement(placement: FilePlacement, m: int) -> bool:
    """True iff no two rooks share a level (columns are distinct already)."""
    _check_m(m)
    seen: set[int] = set()
    for _, row in placement.cells:
        level = (row + m - 1) // m
        if level in seen:
            return False
        seen.add(level)
    return True


def is_rook_placement(placement: FilePlacement) -> bool:
    """True iff no two rooks share a row."""
    return is_m_level_rook_placement(placement, 1)


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"rook count k must be non-negative, got {k}")


def _walk(
    heights: tuple[int, ...], k: int, m: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the placements of exactly k rooks, one per column, as
    ``(column, row)`` tuples in canonical order.

    ``m=None`` walks file placements; an integer m also allows at most
    one rook per level.  Rook d of the placement keeps its own column
    and row and is advanced in place; when it runs out of columns the
    walk backs up to rook d - 1.  Nothing recurses.
    """
    if k == 0:
        yield ()
        return
    n = len(heights)
    # cells[d] is rook d's current (column, row); row 0 means no row tried yet
    cells = [(1, 0)] * k
    used: set[int] = set()  # levels holding a rook (m-level walk only)
    d = 0
    while d >= 0:
        col, row = cells[d]
        if m is not None and row:
            used.discard((row + m - 1) // m)
        row += 1
        last_col = n - k + d + 1  # leaves one column for each later rook
        while col <= last_col:
            height = heights[col - 1]
            if m is not None:
                while row <= height and (row + m - 1) // m in used:
                    row += 1
            if row <= height:
                break
            col += 1
            row = 1
        else:
            d -= 1
            continue
        cells[d] = (col, row)
        if m is not None:
            used.add((row + m - 1) // m)
        if d + 1 == k:
            yield tuple(cells)
        else:
            d += 1
            cells[d] = (col + 1, 0)


def enumerate_file_placements(board: FerrersBoard, k: int) -> Iterator[FilePlacement]:
    """Yield every file placement of exactly k rooks, in canonical order.

    k = 0 yields the single empty placement; k > n yields nothing.
    """
    _check_k(k)
    for cells in _walk(board.heights, k):
        yield FilePlacement._trusted(board, cells)


def enumerate_m_level_rook_placements(
    board: FerrersBoard, m: int, k: int
) -> Iterator[FilePlacement]:
    """Yield every m-level rook placement of exactly k rooks, canonically.

    Equivalent to filtering the file placements by
    ``is_m_level_rook_placement``, but prunes shared levels during the
    column-by-column walk.
    """
    _check_m(m)
    _check_k(k)
    for cells in _walk(board.heights, k, m):
        yield FilePlacement._trusted(board, cells)


def _block_sums(heights: tuple[int, ...], size: int, t: int) -> tuple[int, ...]:
    """``(s_0, ..., s_n)``: s_k sums, over every file placement of k rooks,
    the product over blocks of ``size`` consecutive rows of
    ``ff(1, rooks_in_block, t)``.

    Adding a rook to a block already holding c rooks multiplies the
    weight by ``1 - c*t``; a zero weight prunes the subtree.  Rows of one
    block give equal subtrees, so each block is walked once and weighted
    by its row count in the column.  The sum recurses once per column.
    """
    n = len(heights)
    sums = [0] * (n + 1)
    # per column: (block index, rows of the block inside the column)
    blocks = [
        [(b, min(size, h - b * size)) for b in range(-(-h // size))] for h in heights
    ]
    rooks = [0] * max(heights, default=0)  # per block; no more blocks than rows

    def walk(col: int, placed: int, w: int) -> None:
        if col == n:
            sums[placed] += w
            return
        walk(col + 1, placed, w)
        for b, rows in blocks[col]:
            c = rooks[b]
            factor = 1 - c * t
            if factor:
                rooks[b] = c + 1
                walk(col + 1, placed + 1, w * factor * rows)
                rooks[b] = c

    walk(0, 0, 1)
    return tuple(sums)


def rook_numbers(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """All m-level rook numbers ``(r_0, ..., r_n)`` by exhaustive count.

    ``ff(1, c, 1)`` is 1 for c <= 1 and 0 otherwise, so the block-weight
    sum over levels of m rows counts the m-level rook placements.
    """
    _check_m(m)
    return _block_sums(board.heights, m, 1)


def rook_number(board: FerrersBoard, m: int, k: int) -> int:
    """The m-level rook number ``r_k``; 0 for k beyond the column count."""
    _check_k(k)
    if k > board.n:
        return 0
    return rook_numbers(board, m)[k]
