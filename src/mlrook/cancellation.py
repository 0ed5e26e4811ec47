"""Cancellation partition of non-rook file placements on singleton boards.

On a singleton board the weighted file numbers equal the m-level rook
numbers, so the weights of the file placements that are *not* m-level
rook placements must sum to zero.  This module realizes that sum as a
partition into finite classes, each of which cancels on its own:

- pick the canonical level l of a conflicted placement: among levels
  holding at least two rooks, the one with the fewest (ties go to the
  lowest level);
- freeze every rook outside l and the leftmost rook inside l at their
  exact cells;
- let each remaining rook of l range over the m cells of its column
  inside l.

The resulting class has ``m ** (rooks_in_l - 1)`` members and its
weights sum to zero.  The inductive step behind that fact is the
reintroduction identity: removing a rook from l and summing the weights
over the m ways to put it back multiplies the reduced weight by
``m * (1 - t)`` with t the number of rooks left in l.

The construction needs every movable rook's column to meet l in all m
cells, which the singleton condition guarantees; non-singleton boards
are rejected loudly rather than mis-partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .boards import Cell, FerrersBoard, _check_m, _rows_of_level, is_singleton
from .placements import (
    FilePlacement,
    _cells_string,
    _walk,
    enumerate_file_placements,
)
from .rooktheory import _row_weight, weight

__all__ = [
    "CancellationClass",
    "CoverReport",
    "NonSingletonBoardError",
    "canonical_class",
    "class_members",
    "nonrook_file_placements",
    "reintroduction_sum",
    "verify_cover",
]


class NonSingletonBoardError(ValueError):
    """The cancellation construction was attempted outside its domain."""


def nonrook_file_placements(
    board: FerrersBoard, m: int, k: int
) -> Iterator[FilePlacement]:
    """File placements of k rooks that are not m-level rook placements.

    Empty for k <= 1: a single rook never conflicts.
    """
    _check_m(m)
    for cells in _walk(board.heights, k):
        if _class_key(cells, m) is not None:
            yield FilePlacement._trusted(board, cells)


_Key = tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]


def _class_key(cells: tuple[tuple[int, int], ...], m: int) -> _Key | None:
    """``(level, fixed cells, movable columns)`` of the class holding the
    placement with these column-sorted cells; None when no level holds
    two rooks (an m-level rook placement)."""
    counts: dict[int, int] = {}
    for _, row in cells:
        level = (row + m - 1) // m
        counts[level] = counts.get(level, 0) + 1
    conflicted = [(count, level) for level, count in counts.items() if count >= 2]
    if not conflicted:
        return None
    level = min(conflicted)[1]
    fixed = []
    movable = []
    anchored = False
    for cell in cells:
        if (cell[1] + m - 1) // m != level:
            fixed.append(cell)
        elif anchored:
            movable.append(cell[0])
        else:
            fixed.append(cell)
            anchored = True
    return level, tuple(fixed), tuple(movable)


def _members(key: _Key, m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Column-sorted cells of every class member, in odometer order: the
    leftmost movable column's row varies fastest, rows ascending within
    the anchor level."""
    level, fixed, movable = key
    for swept in product(_rows_of_level(level, m), repeat=len(movable)):
        yield tuple(sorted(fixed + tuple(zip(movable, reversed(swept)))))


@dataclass(frozen=True)
class CancellationClass:
    """One block of the partition: an anchor level, frozen cells, and the
    columns whose rooks sweep the anchor level.

    ``fixed_cells`` holds every rook outside the level plus the leftmost
    rook inside it; ``movable_columns`` are the columns of the other
    rooks of the level, each of which must meet the level in all m of
    its rows.  The class contains ``m ** len(movable_columns)`` members.
    """

    board: FerrersBoard
    m: int
    level: int
    fixed_cells: tuple[Cell, ...]
    movable_columns: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        if self.level < 1:
            raise ValueError(f"levels are 1-indexed, got {self.level}")
        fixed = tuple(sorted(Cell(c, r) for c, r in self.fixed_cells))
        movable = tuple(sorted(self.movable_columns))
        object.__setattr__(self, "fixed_cells", fixed)
        object.__setattr__(self, "movable_columns", movable)

        level_rows = _rows_of_level(self.level, self.m)
        anchor: Cell | None = None
        seen_columns = set()
        for cell in fixed:
            if not self.board.contains(*cell):
                raise ValueError(f"fixed cell {cell.column}:{cell.row} is off the board")
            if cell.column in seen_columns:
                raise ValueError(f"column {cell.column} is occupied twice")
            seen_columns.add(cell.column)
            if cell.row in level_rows:
                if anchor is not None:
                    raise ValueError("more than one fixed rook inside the anchor level")
                anchor = cell
        if anchor is None:
            raise ValueError("no fixed rook inside the anchor level")
        if not movable:
            raise ValueError("a cancellation class needs at least one movable rook")

        prev = anchor.column
        for col in movable:
            if col in seen_columns:
                raise ValueError(f"movable column {col} collides with a fixed cell")
            if col <= prev:
                raise ValueError(
                    f"movable column {col} does not sit right of the anchor column"
                )
            prev = col
            if self.board.column_height(col) < self.m * self.level:
                raise NonSingletonBoardError(
                    f"column {col} meets level {self.level} in fewer than {self.m} cells;"
                    " the class sweep would leave the board"
                )

    @property
    def size(self) -> int:
        return self.m ** len(self.movable_columns)

    def to_json_dict(self, weight_sum: int) -> dict:
        return {
            "level": self.level,
            "fixed": _cells_string(self.fixed_cells),
            "movable_columns": list(self.movable_columns),
            "size": self.size,
            "weight_sum": weight_sum,
        }


def canonical_class(placement: FilePlacement, m: int) -> CancellationClass:
    """The cancellation class containing ``placement``.

    Its level is the canonical one: among levels holding at least two
    rooks, the one with the fewest; ties break to the lowest level.
    Placements without a conflicted level (m-level rook placements) are
    rejected.  Requires a singleton board (otherwise some movable column
    could meet the anchor level only partially and the sweep would be
    ill-formed).
    """
    board = placement.board
    if not is_singleton(board, m):
        raise NonSingletonBoardError(
            f"board {board} is not a singleton board for m={m}"
        )
    key = _class_key(placement.cells, m)
    if key is None:
        raise ValueError(
            "placement is an m-level rook placement; no level holds two rooks"
        )
    return CancellationClass(board, m, *key)


def class_members(cls: CancellationClass) -> tuple[FilePlacement, ...]:
    """All members of the class, in odometer order.

    The leftmost movable column's row varies fastest, rows ascending
    within the anchor level.
    """
    key = (cls.level, cls.fixed_cells, cls.movable_columns)
    return tuple(
        FilePlacement._trusted(cls.board, cells) for cells in _members(key, cls.m)
    )


def reintroduction_sum(
    placement: FilePlacement, column: int, level: int, m: int
) -> int:
    """Weights summed over the m ways to add a rook to ``column`` in ``level``.

    ``column`` must be free in ``placement`` and meet the level in all m
    cells.  Equals ``weight(placement) * m * (1 - t)`` where t is the
    number of rooks the placement already has in the level; in
    particular one resident rook (t = 1) makes the sum vanish, which is
    the two-rook cancellation, while t >= 2 scales the reduced weight
    instead of cancelling.
    """
    _check_m(m)
    if level < 1:
        raise ValueError(f"levels are 1-indexed, got {level}")
    board = placement.board
    if not 1 <= column <= board.n:
        raise ValueError(f"column {column} out of range 1..{board.n}")
    if column in placement.occupied:
        raise ValueError(f"column {column} is already occupied")
    if board.column_height(column) < m * level:
        raise ValueError(
            f"column {column} meets level {level} in fewer than {m} cells"
        )
    return sum(
        weight(placement.with_rook(column, row), m) for row in _rows_of_level(level, m)
    )


@dataclass(frozen=True)
class CoverReport:
    """Outcome of checking the partition on one (board, m, k).

    ``well_defined``: every member of every class maps back to the same
    class.  ``disjoint_cover``: the classes are pairwise disjoint and
    exhaust the non-rook placements.  ``class_sums_zero``: every class
    weight sum is zero.  ``total_zero``: the weights over all non-rook
    placements sum to zero.  ``witness`` names an offending placement
    when some check fails.
    """

    board: FerrersBoard
    m: int
    k: int
    nonrook_count: int
    classes: tuple[CancellationClass, ...]
    class_sums: tuple[int, ...]
    well_defined: bool
    disjoint_cover: bool
    class_sums_zero: bool
    total_zero: bool
    total_weight: int
    witness: str | None

    @property
    def ok(self) -> bool:
        return (
            self.well_defined
            and self.disjoint_cover
            and self.class_sums_zero
            and self.total_zero
        )

    def class_json_dicts(self) -> list[dict]:
        return [
            cls.to_json_dict(weight_sum=s)
            for cls, s in zip(self.classes, self.class_sums)
        ]

    def summary_json_dict(self) -> dict:
        return {
            "board": str(self.board),
            "m": self.m,
            "k": self.k,
            "nonrook_placements": self.nonrook_count,
            "num_classes": len(self.classes),
            "well_defined": self.well_defined,
            "disjoint_cover": self.disjoint_cover,
            "class_sums_zero": self.class_sums_zero,
            "total_zero": self.total_zero,
            "total_weight": self.total_weight,
            "ok": self.ok,
            "witness": self.witness,
        }


def verify_cover(board: FerrersBoard, m: int, k: int) -> CoverReport:
    """Partition the non-rook file placements of k rooks and check it.

    Builds the class of every placement, then asserts well-definedness,
    the disjoint-and-exhaustive cover, the per-class zero sums, and the
    zero total.  Requires a singleton board.
    """
    _check_m(m)
    if not is_singleton(board, m):
        raise NonSingletonBoardError(
            f"board {board} is not a singleton board for m={m}"
        )

    groups: dict[_Key, set[tuple]] = {}
    total = 0
    count = 0
    for placement in enumerate_file_placements(board, k):
        key = _class_key(placement.cells, m)
        if key is None:
            continue
        count += 1
        total += weight(placement, m)
        groups.setdefault(key, set()).add(placement.cells)

    sums: list[int] = []
    well_defined = True
    disjoint_cover = True
    sums_zero = True
    witness: str | None = None

    keys = sorted(groups)
    for key in keys:
        members = list(_members(key, m))
        for member in members:
            if _class_key(member, m) != key:
                well_defined = False
                witness = witness or _cells_string(member)
        member_set = set(members)
        if member_set != groups[key]:
            disjoint_cover = False
            stray = next(iter(member_set.symmetric_difference(groups[key])))
            witness = witness or _cells_string(stray)
        s = sum(_row_weight(member, m) for member in members)
        if s != 0:
            sums_zero = False
            witness = witness or _cells_string(members[0])
        sums.append(s)

    return CoverReport(
        board=board,
        m=m,
        k=k,
        nonrook_count=count,
        classes=tuple(CancellationClass(board, m, *key) for key in keys),
        class_sums=tuple(sums),
        well_defined=well_defined,
        disjoint_cover=disjoint_cover,
        class_sums_zero=sums_zero,
        total_zero=(total == 0),
        total_weight=total,
        witness=witness,
    )
