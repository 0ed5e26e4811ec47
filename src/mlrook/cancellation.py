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
keeping no set of them.  Each non-rook placement is keyed and weighed
once, checked in O(k) to be a member of the class its key names, and
tallied under that key: one more member and its weight.  The walked
placements are distinct, so a class whose tally reaches its size
``m ** len(movable)`` was walked in full, each member mapping back to
it; its tallied weights must sum to zero.  A key is a function, so the
classes are disjoint, and they are exhaustive when the tallied count
equals the non-rook count and ``e_k - r_k``: e_k, the number of file
placements of k rooks, is the coefficient of ``x^(n-k)`` in
``prod(x + h_i)``, and r_k is the m-level rook number from the column
sweep of ``placements.rook_numbers``, which counts from the heights
alone and never reads a class key.  So a class key that wrongly reads a
placement as an m-level rook placement cannot drop its class from both
sides of the count.
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
        _check_int("level", self.level, 1)
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
    _check_int("level", level, 1)
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

    ``well_defined``: every non-rook placement is a member of the class
    its key names, and every class's walked count equals its size.
    ``disjoint_cover``: the classes are pairwise disjoint and exhaust the
    non-rook placements.  ``class_sums_zero``: every class weight sum is
    zero.  ``total_zero``: the weights over all non-rook placements sum
    to zero.  ``witness`` names an offending placement when some check
    fails.
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

    One walk keys, weighs and tallies each non-rook placement once, as
    the module docstring describes; a placement outside the class its
    key names is a witness.  Only a failed count walks again, to name
    one.  Requires a singleton board.
    """
    _check_m(m)
    _check_k(k)
    if not is_singleton(board, m):
        raise NonSingletonBoardError(f"board {board} is not a singleton board for m={m}")

    tallies: dict[_Key, list[int]] = {}  # key -> [walked members, weight sum]
    count = total = 0
    witness: str | None = None
    for cells in _walk(board.heights, k):
        key = _class_key(cells, m)
        if key is None:
            continue
        count += 1
        w = weight(FilePlacement._trusted(board, cells), m)
        total += w
        if not _in_class(cells, key, m):
            witness = witness or _cells_string(cells)
            continue
        tally = tallies.get(key)
        if tally is None:
            tallies[key] = [1, w]
        else:
            tally[0] += 1
            tally[1] += w

    keys = sorted(tallies)
    incomplete = {key for key in keys if tallies[key][0] != m ** len(key[2])}
    tallied = sum(tally[0] for tally in tallies.values())
    well_defined = tallied == count and not incomplete
    disjoint_cover = tallied == count == _nonrook_total(board, m, k)
    if not (well_defined and disjoint_cover):
        witness = witness or _first_unaccounted(board, m, k, incomplete)
    nonzero = [key for key in keys if tallies[key][1]]
    if nonzero:
        witness = witness or _cells_string(_first_member(nonzero[0], m))
    return CoverReport(
        board=board,
        m=m,
        k=k,
        nonrook_count=count,
        classes=tuple(CancellationClass._trusted(board, m, key) for key in keys),
        class_sums=tuple(tallies[key][1] for key in keys),
        well_defined=well_defined,
        disjoint_cover=disjoint_cover,
        class_sums_zero=not nonzero,
        total_zero=(total == 0),
        total_weight=total,
        witness=witness,
    )


def _in_class(cells: tuple[tuple[int, int], ...], key: _Key, m: int) -> bool:
    # whether the column-sorted cells are a member of the key's class: the
    # cells outside the movable columns are the fixed ones, and each movable
    # column holds one rook, in the level's m rows
    level, fixed, movable = key
    if len(cells) != len(fixed) + len(movable):
        return False
    swept = set(movable)
    rows = _rows_of_level(level, m)
    rest = []
    for cell in cells:
        if cell[0] not in swept:
            rest.append(cell)
        elif cell[1] not in rows:
            return False
    return tuple(rest) == fixed


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


def _first_unaccounted(
    board: FerrersBoard, m: int, k: int, incomplete: Collection[_Key]
) -> str | None:
    """Failure path: the first walked placement that is a member of an
    incomplete class or whose class key disagrees with
    ``is_m_level_rook_placement``.  None when there is none, which leaves
    the walk itself at fault."""
    for cells in _walk(board.heights, k):
        key = _class_key(cells, m)
        if key in incomplete or (key is None) != is_m_level_rook_placement(
            FilePlacement._trusted(board, cells), m
        ):
            return _cells_string(cells)
    return None
