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

Cells are plain ``(column, row)`` int tuples throughout, as the walker
yields them; ``CancellationClass.fixed_cells`` holds them too.

``verify_cover`` checks the partition in one walk over the placements,
keeping no set of them.  It counts the non-rook placements and sums
their weights.  A class is checked when the walk reaches its first
member, the one with every movable rook on the bottom row of l: its
members are regenerated, each must map back to the class, and their
weights must sum to zero.  The cover is then proved by counting.  A
placement has one class, so the distinct members of the well-defined
classes are distinct placements, and their number equals the non-rook
count exactly when the classes are disjoint and exhaustive.  That count
is itself checked against ``e_k - r_k``: e_k, the number of file
placements of k rooks, is the coefficient of ``x^(n-k)`` in
``prod(x + h_i)``, and r_k is the m-level rook number from the
block-weight sum.  So a class key that wrongly reads a placement as an
m-level rook placement cannot drop its class from both sides of the
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Collection, Iterator

from .boards import FerrersBoard, _check_int, _check_m, _rows_of_level, is_singleton
from .ffpoly import expand_roots
from .placements import (
    FilePlacement,
    _cells_string,
    _check_k,
    _pairs,
    _walk,
    is_m_level_rook_placement,
    rook_number,
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
    _check_k(k)
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
    A class is the canonical class of its first member, the one with
    every movable rook on the level's bottom row, and the constructor
    accepts exactly such triples.
    """

    board: FerrersBoard
    m: int
    level: int
    fixed_cells: tuple[tuple[int, int], ...]
    movable_columns: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.board, FerrersBoard):
            raise ValueError(f"board {self.board!r} is not a FerrersBoard")
        _check_m(self.m)
        if isinstance(self.level, bool) or not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"levels are 1-indexed integers, got {self.level!r}")
        fixed = _pairs(self.fixed_cells)
        movable = tuple(self.movable_columns)
        for x in chain(*fixed, movable):  # before sorting, which may compare them
            _check_int("cell coordinate or movable column", x)
        fixed, movable = tuple(sorted(fixed)), tuple(sorted(movable))
        object.__setattr__(self, "fixed_cells", fixed)
        object.__setattr__(self, "movable_columns", movable)
        for col in movable:
            if self.board.column_height(col) < self.m * self.level:
                raise NonSingletonBoardError(
                    f"column {col} meets level {self.level} in fewer than {self.m} cells;"
                    " the class sweep would leave the board"
                )
        key = (self.level, fixed, movable)
        first = FilePlacement(self.board, _first_member(key, self.m))
        if _class_key(first.cells, self.m) != key:
            raise ValueError(f"not the canonical class of its first member {first}")

    @classmethod
    def _trusted(cls, board: FerrersBoard, m: int, key: _Key) -> "CancellationClass":
        # a key ``_class_key`` derived from a valid placement on a singleton
        # board: sorted, and passing every check of ``__post_init__``
        level, fixed, movable = key
        made = object.__new__(cls)
        object.__setattr__(made, "board", board)
        object.__setattr__(made, "m", m)
        object.__setattr__(made, "level", level)
        object.__setattr__(made, "fixed_cells", fixed)
        object.__setattr__(made, "movable_columns", movable)
        return made

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
        raise NonSingletonBoardError(f"board {board} is not a singleton board for m={m}")
    key = _class_key(placement.cells, m)
    if key is None:
        raise ValueError("placement is an m-level rook placement; no level holds two rooks")
    # The key is the canonical class of the placement and of its first
    # member.  Each movable column meets the level in m rows: the anchor's
    # column, left of it and holding a rook in the level, would otherwise
    # enter the level partially too, and a singleton board allows one.
    return CancellationClass._trusted(board, m, key)


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
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise ValueError(f"levels are 1-indexed integers, got {level!r}")
    _check_int("column", column)
    if column in placement.occupied:
        raise ValueError(f"column {column} is already occupied")
    if placement.board.column_height(column) < m * level:
        raise ValueError(
            f"column {column} meets level {level} in fewer than {m} cells"
        )
    rows = _rows_of_level(level, m)
    return sum(_row_weight(placement.cells + ((column, row),), m) for row in rows)


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

    One walk checks each class at its first member and proves the cover
    by counting, as the module docstring describes.  Only a count that
    fails walks again, to name the first placement it could not account
    for.  A class is recorded only when the walk reaches its first
    member, so when the count fails, ``classes``, ``class_sums``,
    ``well_defined`` and ``class_sums_zero`` speak only for the classes
    the walk reached.  Requires a singleton board.
    """
    _check_m(m)
    _check_k(k)
    if not is_singleton(board, m):
        raise NonSingletonBoardError(f"board {board} is not a singleton board for m={m}")

    heights = board.heights
    sums: dict[_Key, int] = {}
    count = total = credited = 0
    well_defined = True
    sums_zero = True
    witness: str | None = None
    for cells in _walk(heights, k):
        key = _class_key(cells, m)
        if key is None:
            continue
        count += 1
        total += weight(FilePlacement._trusted(board, cells), m)
        if cells != _first_member(key, m):
            continue
        members = list(_members(key, m))
        stray = next((p for p in members if _class_key(p, m) != key), None)
        if stray is None:
            credited += len(_credited(key, members, heights, m))
        else:
            well_defined = False
            witness = witness or _cells_string(stray)
        s = sum(_row_weight(member, m) for member in members)
        if s != 0:
            sums_zero = False
            witness = witness or _cells_string(members[0])
        sums[key] = s

    disjoint_cover = credited == count == _nonrook_total(board, m, k)
    if not disjoint_cover and witness is None:
        witness = _first_unaccounted(board, m, k, sums)

    keys = sorted(sums)
    return CoverReport(
        board=board,
        m=m,
        k=k,
        nonrook_count=count,
        classes=tuple(CancellationClass._trusted(board, m, key) for key in keys),
        class_sums=tuple(sums[key] for key in keys),
        well_defined=well_defined,
        disjoint_cover=disjoint_cover,
        class_sums_zero=sums_zero,
        total_zero=(total == 0),
        total_weight=total,
        witness=witness,
    )


def _nonrook_total(board: FerrersBoard, m: int, k: int) -> int:
    # e_k - r_k, with e_k read off prod(x + h_i): each column takes one of
    # its h_i rows (x^0) or stays empty (x^1)
    n = board.n
    if k > n:
        return 0
    return expand_roots(board.heights).coeffs[n - k] - rook_number(board, m, k)


def _first_member(key: _Key, m: int) -> tuple[tuple[int, int], ...]:
    # every movable rook on the anchor level's bottom row, read off the key
    level, fixed, movable = key
    bottom = m * (level - 1) + 1
    return tuple(sorted(fixed + tuple((col, bottom) for col in movable)))


def _credited(
    key: _Key, members: list[tuple[tuple[int, int], ...]], heights: tuple[int, ...], m: int
) -> set[tuple[tuple[int, int], ...]]:
    """The members a well-defined class adds to the count: distinct,
    column-sorted like the walk's placements, and on the board.  The
    fixed cells are on it already, being those of a walked placement."""
    level, _, movable = key
    if any(heights[col - 1] < m * level for col in movable):
        return set()
    return {p for p in members if all(a[0] < b[0] for a, b in zip(p, p[1:]))}


def _first_unaccounted(
    board: FerrersBoard, m: int, k: int, checked: Collection[_Key]
) -> str | None:
    """Failure path: the first placement whose class key disagrees with
    ``is_m_level_rook_placement``, or the first non-rook placement its
    class did not credit.  It runs only when no class check named a
    witness, so every checked class is well defined.  None when every
    walked placement is accounted for, which leaves the walk itself at
    fault."""
    for cells in _walk(board.heights, k):
        key = _class_key(cells, m)
        if (key is None) != is_m_level_rook_placement(FilePlacement._trusted(board, cells), m):
            return _cells_string(cells)
        if key is not None and (
            key not in checked
            or cells not in _credited(key, list(_members(key, m)), board.heights, m)
        ):
            return _cells_string(cells)
    return None
