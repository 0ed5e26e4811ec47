"""Ferrers boards and their level geometry.

A Ferrers board is a bottom-justified array of cells given by weakly
increasing column heights ``(b_1, ..., b_n)``.  Fixing a block size
``m >= 1`` groups rows into *levels* of ``m`` consecutive rows; all
level-based notions in this module (zones, level numbers, singleton
boards) are relative to that block size.

Conventions used throughout the package:

- columns, rows, and levels are 1-indexed; row 1 is the bottom row;
- level ``j`` covers rows ``m*(j-1)+1 .. m*j``;
- an n-column board is considered inside an ambient grid of ``m*n`` rows
  (n levels) for constructions that need a fixed number of levels;
- the empty board (no columns) is legal everywhere.

All values are immutable and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, starmap
from typing import Iterable, Iterator, Sequence

__all__ = [
    "AmbientSizeError",
    "FerrersBoard",
    "InvalidBoardError",
    "Zone",
    "is_singleton",
    "level_numbers",
    "make_board",
    "parse_board",
    "zones",
]


class InvalidBoardError(ValueError):
    """Column heights are negative, non-integer, or decrease."""


class AmbientSizeError(ValueError):
    """The board is too tall for the n levels of its ambient grid."""


def _check_int(name: str, value: int, low: int | None = None) -> None:
    # bool is an int subclass, but True is not a count, height or coefficient
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} {value!r} is not an integer")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_m(m: int) -> None:
    _check_int("block size m", m, 1)


def _rows_of_level(level: int, m: int) -> range:
    # level j covers rows m*(j-1)+1 .. m*j
    return range(m * (level - 1) + 1, m * level + 1)


@dataclass(frozen=True)
class FerrersBoard:
    """Board of weakly increasing column heights ``b_1 <= ... <= b_n``.

    ``heights[i-1]`` cells sit at the bottom of column ``i``.  The height
    sequence may be empty.
    """

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        heights = tuple(self.heights)
        object.__setattr__(self, "heights", heights)
        prev = 0
        for i, h in enumerate(heights, start=1):
            if isinstance(h, bool) or not isinstance(h, int):
                raise InvalidBoardError(f"column {i}: height {h!r} is not an integer")
            if h < 0:
                raise InvalidBoardError(f"column {i}: height {h} is negative")
            if h < prev:
                raise InvalidBoardError(
                    f"column {i}: height {h} is smaller than column {i - 1} height {prev}"
                )
            prev = h

    @property
    def n(self) -> int:
        """Number of columns."""
        return len(self.heights)

    @property
    def total_cells(self) -> int:
        return sum(self.heights)

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.heights)


def make_board(heights: Iterable[int]) -> FerrersBoard:
    """Build a board from a height sequence, validating monotonicity.

    Rejects negative or decreasing heights with an error naming the
    offending (1-indexed) column.
    """
    return FerrersBoard(tuple(heights))


def parse_board(text: str) -> FerrersBoard:
    """Parse the comma-separated height format, e.g. ``"1,1,2,4"``.

    The empty string denotes the empty board.
    """
    return FerrersBoard(_parse_ints(text, "board", InvalidBoardError))


def _parse_ints(text: str, what: str, error: type[ValueError]) -> tuple[int, ...]:
    # comma-separated integers, none for a blank text; ``error`` names a bad token
    values = []
    for pos, token in enumerate(text.split(",") if text.strip() else (), start=1):
        try:
            values.append(int(token))
        except ValueError:
            raise error(
                f"bad {what} string: token {token.strip()!r} at position {pos} is not an integer"
            ) from None
    return tuple(values)


@dataclass(frozen=True)
class Zone:
    """Maximal run of columns sharing one m-floor.

    ``remainder`` is the sum over the zone's columns of the part of each
    height above the shared floor.
    """

    start: int
    end: int
    floor: int
    remainder: int


def _zone_runs(heights: Sequence[int], m: int) -> Iterator[tuple[int, int, int, int]]:
    # each zone's (start, end, floor, remainder), Zone's fields, in one pass:
    # a column whose m-floor differs from its left neighbour's opens a zone
    start, floor, rest = 1, None, 0
    for i, h in enumerate(heights, start=1):
        r = h % m
        if h - r == floor:
            rest += r
            continue
        if floor is not None:
            yield start, i - 1, floor, rest
        start, floor, rest = i, h - r, r
    if floor is not None:
        yield start, len(heights), floor, rest


def zones(board: FerrersBoard, m: int) -> tuple[Zone, ...]:
    """Split columns into maximal runs of equal m-floor, left to right.

    The returned zones are consecutive and cover columns 1..n exactly;
    they are ``_zone_runs``' one pass over the heights, as records.
    """
    _check_m(m)
    return tuple(starmap(Zone, _zone_runs(board.heights, m)))


def _fits_levels(board: FerrersBoard, m: int) -> bool:
    # the board fits its n ambient levels: b_n <= m*n
    return board.n == 0 or board.heights[-1] <= m * board.n


def level_numbers(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Cell counts per level, reported from the top of the n-level grid.

    Entry j (1-indexed) counts the cells in level ``n+1-j``, so the last
    entry is the bottom level.  The board must fit its n ambient levels;
    a board with ``b_n > m*n`` is rejected.  A column of height
    ``q*m + r`` fills levels 1..q and puts r cells in level q+1.
    """
    _check_m(m)
    n = board.n
    if not _fits_levels(board, m):
        raise AmbientSizeError(
            f"board height {board.heights[-1]} exceeds the {n}-level grid of {m * n} rows"
        )
    full = [0] * (n + 1)  # full[q]: columns of height q*m + r
    partial = [0] * (n + 1)  # partial[q]: their r cells in level q+1
    for h in board.heights:
        q, r = divmod(h, m)
        full[q] += 1
        partial[q] += r
    through = accumulate(reversed(full[1:]))  # columns filling level n, n-1, ..., 1
    return tuple(m * t + r for t, r in zip(through, reversed(partial[:n])))


def is_singleton(board: FerrersBoard, m: int) -> bool:
    """Whether every partially filled level is entered by at most one column.

    Formally: each zone's remainder lies in its last column alone, so a
    column ending mid-level is followed by a strictly higher m-floor.
    The last column is unconstrained.  Every board is a singleton board
    for m=1.  Reads the zones from ``_zone_runs``' one pass.
    """
    _check_m(m)
    heights = board.heights
    return all(rest == heights[end - 1] - floor for _, end, floor, rest in _zone_runs(heights, m))
