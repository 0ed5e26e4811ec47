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
block-weight sum over all file placements (see ``_block_sums``).  It is
exact and uses none of the product forms: one sweep over the columns
sums the weights of the placements that share a block-occupancy state,
so it neither recurses nor visits each placement.
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


def _check_k(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"rook count k must be a non-negative integer, got {k!r}")


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

    One sweep over the columns keeps a map from block-occupancy states
    to the summed weight of the partial placements in that state.  A
    column either stays empty or adds a rook to one of its blocks;
    adding a rook to a block already holding c rooks multiplies the
    weight by ``1 - c*t``, and the block's rows in the column give equal
    branches, so the factor also carries that row count.  A zero factor
    drops the branch.

    Heights weakly increase, so every block wholly below the current
    column top is whole in every later column too, and such blocks are
    interchangeable.  A state is therefore ``(hist, cut)``: ``hist[i]``
    counts the whole blocks holding i + 1 rooks, and ``cut`` is the rook
    count of the block the column top cuts.  Its size is bounded by the
    rooks placed, not by the height.  The sum reads only the heights,
    never a product form, so checking a product form against it is a
    real check.
    """
    states = {((), 0): 1}
    whole = 0  # blocks wholly below the previous column top
    for h in heights:
        top, rem = divmod(h, size)
        if top > whole:  # the cut block, if any rook is in it, is now whole
            merged: dict = {}
            for (hist, cut), w in states.items():
                key = (_shift(hist, 0, cut) if cut else hist, 0)
                merged[key] = merged.get(key, 0) + w
            states = merged
            whole = top
        grown = dict(states)  # the column stays empty
        for (hist, cut), w in states.items():
            branches = [(0, top - sum(hist))]  # empty whole blocks
            branches += [(c, n) for c, n in enumerate(hist, start=1) if n]
            for c, n in branches:
                factor = n * (1 - c * t) * size
                if factor:
                    key = (_shift(hist, c, c + 1), cut)
                    grown[key] = grown.get(key, 0) + w * factor
            factor = (1 - cut * t) * rem
            if factor:
                key = (hist, cut + 1)
                grown[key] = grown.get(key, 0) + w * factor
        states = grown
    sums = [0] * (len(heights) + 1)
    for (hist, cut), w in states.items():
        sums[sum(c * n for c, n in enumerate(hist, start=1)) + cut] += w
    return tuple(sums)


def _shift(hist: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    # move one whole block from ``old`` rooks (0: an empty block) to ``new``
    counts = list(hist) + [0] * (new - len(hist))
    if old:
        counts[old - 1] -= 1
    counts[new - 1] += 1
    return tuple(counts)


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
