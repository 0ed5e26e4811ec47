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
yields them; ``CancellationClass.fixed_cells`` holds them too.  A class
is checked through its first member, built in closed form whatever m.

``verify_cover`` checks the partition in one walk, keeping no set of
placements.  Per prefix of k - 1 rooks from ``placements._prefixes``,
computed once in O(k): as ``(count, level)``, its two least crowded
conflicted levels, which ``_keyer`` turns into the canonical level for a
last rook in each level; its weight w, by the public ``weight``; its rooks
per row and per level, which ``_row_counts`` reads off its cells, never
off a key; and, built lazily, the split
``(level, fixed cells, movable columns)`` of each level a key needs.  A
last rook in a level L that the prefix holds joins L's movable columns
when ``(count + 1, L)`` beats the least crowded other conflicted level, or
no other level is conflicted, so every row of L in that column shares one
key.  Otherwise, and for a last rook in a level the prefix leaves empty,
the least crowded other conflicted level is canonical and the last rook is
its last fixed cell; with none, the placement is an m-level rook
placement.  So the last rook visits the prefix's levels if none is
conflicted, else every level of the tallest column.  In row r it weighs
``w * (1 - m * rows[r])``; over its column's s rows of L,
``w * (s - m * t)`` for the t prefix rooks in L, all to the left, no
taller: the reintroduction identity for a whole level.  Each such span or
fixed cell is keyed, weighed and tallied in O(1), so a prefix costs O(k)
plus the level spans where it makes non-rook placements.  ``_class_key``,
behind ``canonical_class`` and other public names, keys one placement the
same way: ``_keyer`` and ``_split`` applied to its prefix and last rook.

``well_defined`` is still proved, with membership checked amortised.
Each split is checked once against its prefix, in O(k): the prefix's
cells outside the movable columns are the fixed cells, in order, and
each movable rook lies in the level.  A movable last rook must lie in
the key's level, checked once per level of a column; a fixed last rook
lies right of every prefix column, so appended to a valid split it
makes a member.  A placement that fails is a witness and joins no tally;
every other joins its key's.  The walked placements are distinct, so a
class whose tally reaches its size ``m ** len(movable)`` was walked in
full, each member mapping back to it; its weights must sum to zero.  One
loop over the sorted keys checks both after the walk.  A key is a
function, so the classes are disjoint, and with no witness they are
exhaustive when the walked count equals ``e_k - r_k``: e_k, the number
of file placements of k rooks, is the coefficient of ``x^(n-k)`` in
``prod(x + h_i)``, and r_k is the m-level rook number from the column
sweep of ``placements.rook_numbers``, which counts from the heights
alone and never reads a class key.  So a keyer that wrongly reads a
placement as an m-level rook placement cannot drop its class from both
sides of the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterable, Iterator

from .boards import FerrersBoard, _check_int, _check_m, _rows_of_level, is_singleton
from .ffpoly import expand_roots
from .placements import (
    FilePlacement,
    _cells_string,
    _check_k,
    _prefixes,
    _walk,
    is_m_level_rook_placement,
    rook_numbers,
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


def _check_singleton(board: FerrersBoard, m: int) -> None:
    if not is_singleton(board, m):
        raise NonSingletonBoardError(f"board {board} is not a singleton board for m={m}")


def _check_full(board: FerrersBoard, column: int, level: int, m: int) -> None:
    # a swept column meets the level in all m rows; callers have validated the column
    if board.heights[column - 1] < m * level:
        raise NonSingletonBoardError(
            f"column {column} meets level {level} in fewer than {m} cells"
        )


def nonrook_file_placements(board: FerrersBoard, m: int, k: int) -> Iterator[FilePlacement]:
    """File placements of k rooks that are not m-level rook placements.

    Empty for k <= 1: a single rook never conflicts.
    """
    _check_m(m)
    _check_k(k)
    if k < 2:  # before the walk, which would visit every cell for nothing
        return
    for cells in _walk(board.heights, k):
        if _class_key(cells, m) is not None:
            yield FilePlacement._trusted(board, cells)


_Key = tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]


def _class_key(cells: tuple[tuple[int, int], ...], m: int) -> _Key | None:
    """``(level, fixed cells, movable columns)`` of the class holding the
    placement with these column-sorted cells; None when no level holds
    two rooks (an m-level rook placement).  The key ``verify_cover``
    tallies: ``_keyer`` reads the canonical level off the prefix for the
    last rook's level, and the last rook joins the prefix's ``_split``
    as a movable column or as its last fixed cell."""
    if len(cells) < 2:
        return None
    prefix, (c, r) = cells[:-1], cells[-1]
    actions, elsewhere = _keyer(prefix, m)
    action = actions.get((r + m - 1) // m, elsewhere)
    if action is None:
        return None
    level, fixed, columns = _split(prefix, action[0], m)
    return (level, fixed, columns + (c,)) if action[1] else (level, fixed + ((c, r),), columns)


def _split(cells: tuple[tuple[int, int], ...], level: int, m: int) -> _Key:
    """The key ``(level, fixed, movable)`` of these column-sorted cells with
    ``level`` canonical: the leftmost rook in the level and every rook
    outside it fixed, the columns of the level's other rooks movable."""
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


def _keyer(
    prefix: tuple[tuple[int, int], ...], m: int
) -> tuple[dict[int, tuple[int, bool]], tuple[int, bool] | None]:
    """``(canonical level, movable)`` of the prefix plus a last rook to its
    right, for a last rook in each level the prefix holds, and the pair
    for a last rook in any other level (None: an m-level rook placement).
    ``movable`` says whether the last rook joins the level's movable
    columns or is its split's last fixed cell.  The rule is the module
    docstring's, read off the two least crowded conflicted levels."""
    # counted here, not read from _row_counts: a wrong key must not bring matching wrong weights
    counts: dict[int, int] = {}
    for _, row in prefix:
        level = (row + m - 1) // m
        counts[level] = counts.get(level, 0) + 1
    # the two least crowded conflicted levels as (count, level), or ``none``, above any pair
    best = second = none = (len(prefix) + 2, 0)
    for level, count in counts.items():
        if count > 1 and (count, level) < second:
            best, second = min(best, (count, level)), max(best, (count, level))
    actions = {}
    for level, count in counts.items():
        other = second if best[1] == level else best
        actions[level] = (level, True) if (count + 1, level) < other else (other[1], False)
    return actions, (None if best is none else (best[1], False))


def _row_counts(prefix: tuple[tuple[int, int], ...], m: int) -> tuple[dict, dict]:
    rows: dict[int, int] = {}
    levels: dict[int, int] = {}
    for _, row in prefix:
        rows[row] = rows.get(row, 0) + 1
        level = (row + m - 1) // m
        levels[level] = levels.get(level, 0) + 1
    return rows, levels


def _first_cells(level: int, fixed: Iterable, movable: tuple[int, ...], m: int) -> tuple:
    # the first member's cells, unsorted: every movable rook on the level's bottom row
    row = _rows_of_level(level, m).start
    return (*fixed, *((col, row) for col in movable))


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
    accepts exactly such triples; it builds that member in closed form.
    """

    board: FerrersBoard
    m: int
    level: int
    fixed_cells: tuple[tuple[int, int], ...]
    movable_columns: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        _check_int("level", self.level, 1)
        movable = tuple(self.movable_columns)
        cells = _first_cells(self.level, self.fixed_cells, movable, self.m)
        first = FilePlacement(self.board, cells)  # checks the board and cells, and sorts them
        movable = tuple(sorted(movable))
        for col in movable:
            _check_full(self.board, col, self.level, self.m)
        key = _class_key(first.cells, self.m)  # its fixed cells: first's outside movable
        if key is None or (key[0], key[2]) != (self.level, movable):
            raise ValueError(f"not the canonical class of its first member {first}")
        object.__setattr__(self, "fixed_cells", key[1])
        object.__setattr__(self, "movable_columns", movable)

    @classmethod
    def _trusted(cls, board: FerrersBoard, m: int, key: _Key) -> "CancellationClass":
        # a key ``_class_key`` derived from a valid placement on a singleton
        # board: sorted, and passing every check of ``__post_init__``
        level, fixed, movable = key
        made = object.__new__(cls)
        made.__dict__.update(
            board=board, m=m, level=level, fixed_cells=fixed, movable_columns=movable
        )
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
    _check_singleton(board, m)
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
    fixed, movable = cls.fixed_cells, cls.movable_columns
    return tuple(
        FilePlacement._trusted(cls.board, tuple(sorted(fixed + tuple(zip(movable, swept[::-1])))))
        for swept in product(_rows_of_level(cls.level, cls.m), repeat=len(movable))
    )


def reintroduction_sum(placement: FilePlacement, column: int, level: int, m: int) -> int:
    """Weights summed over the m ways to add a rook to ``column`` in ``level``.

    A column that is not an integer, taken, off the board or not full in the
    level is refused as ``CancellationClass`` refuses it.  Summed by row in
    O(k^2) whatever m: a new rook alone in its row keeps the weight.  Equals
    ``weight(placement) * m * (1 - t)`` for t rooks of the placement in the
    level: one resident rook (t = 1) makes the sum vanish, the two-rook
    cancellation, while t >= 2 scales the reduced weight.
    """
    _check_m(m)
    _check_int("level", level, 1)
    rows = _rows_of_level(level, m)
    cells = placement.cells
    FilePlacement(placement.board, cells + ((column, rows.start),))  # refuses it as a class does
    _check_full(placement.board, column, level, m)
    held = {row for _, row in cells if row in rows}  # the level's rows that hold rooks
    return (m - len(held)) * _row_weight(cells, m) + sum(
        _row_weight(cells + ((column, row),), m) for row in held)


# CoverReport's four checks: its boolean fields, its summary keys, and what ok requires
_FLAGS = ("well_defined", "disjoint_cover", "class_sums_zero", "total_zero")


@dataclass(frozen=True)
class CoverReport:
    """Outcome of checking the partition on one (board, m, k).

    ``well_defined``: every non-rook placement is a member of the class
    its key names, and every class's walked count equals its size.
    ``disjoint_cover``: the classes are pairwise disjoint and exhaust the
    non-rook placements.  ``class_sums_zero``: every class weight sum is
    zero.  ``total_zero``: the weights over all non-rook placements sum
    to zero.  ``witness`` names an offending placement when some check
    fails.  ``ok``: all four checks hold.
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
        return all(getattr(self, flag) for flag in _FLAGS)

    def summary_json_dict(self) -> dict:
        return {
            "board": str(self.board),
            "m": self.m,
            "k": self.k,
            "nonrook_placements": self.nonrook_count,
            "num_classes": len(self.classes),
            **{flag: getattr(self, flag) for flag in _FLAGS},
            "total_weight": self.total_weight,
            "ok": self.ok,
            "witness": self.witness,
        }


def verify_cover(board: FerrersBoard, m: int, k: int) -> CoverReport:
    """Partition the non-rook file placements of k rooks and check it.

    One walk over the prefixes of k - 1 rooks on a singleton board tallies each
    non-rook placement once under its key, as the module docstring describes.
    The witness is the first walked placement that fails its membership check
    (levels ascending, or a prefix's own left to right, a level's columns from
    the right, each at its bottom row); else, after a failed count, the first
    walked in an incomplete class or misread by its key; else the first member
    of the first class, by key, whose sum is not zero.
    """
    _check_k(k)
    _check_singleton(board, m)  # checks m

    heights = board.heights
    n = len(heights)
    tallies: dict[_Key, list[int]] = {}  # key -> [walked members, weight sum]
    count = total = 0
    witness: str | None = None
    every_level = range(1, -(-max(heights, default=0) // m) + 1)  # the tallest column's
    for prefix, first, _ in _prefixes(heights, k):
        actions, elsewhere = _keyer(prefix, m)
        # the public weight, not _row_weight: a traced cover run must reach
        # rooktheory (perfbench's test_traced_run_accounts_for_every_layer)
        w = weight(FilePlacement._trusted(board, prefix), m)
        rows, levels = _row_counts(prefix, m)
        splits: dict[int, tuple[_Key, bool]] = {}  # canonical level -> (split, member)
        for level in actions if elsewhere is None else every_level:
            canonical, movable = actions.get(level, elsewhere)
            split = splits.get(canonical)
            if split is None:
                key = _split(prefix, canonical, m)
                split = splits[canonical] = key, _in_class(prefix, key, m)
            (canonical, fixed, columns), member = split
            low, t = m * (level - 1), m * levels.get(level, 0)
            for c in range(n, first - 1, -1):
                size = heights[c - 1] - low  # the level's rows in column c
                if size <= 0:
                    break  # heights weakly increase: no column to the left meets the level
                size = m if size > m else size
                count += size
                ws = w * (size - t)
                total += ws
                if not member or movable and canonical != level:
                    witness = witness or _cells_string(prefix + ((c, low + 1),))
                elif movable:  # every row of the level: one key
                    key = canonical, fixed, columns + (c,)
                    tally = tallies.get(key) or tallies.setdefault(key, [0, 0])
                    tally[0] += size
                    tally[1] += ws
                else:  # one key per row, the last rook its last fixed cell
                    for r in range(low + 1, low + size + 1):
                        key = canonical, fixed + ((c, r),), columns
                        tally = tallies.get(key) or tallies.setdefault(key, [0, 0])
                        tally[0] += 1
                        tally[1] += w * (1 - m * rows.get(r, 0))

    incomplete, nonzero_witness, classes, sums = set(), None, [], []
    for key in sorted(tallies):
        walked, s = tallies[key]
        classes.append(CancellationClass._trusted(board, m, key))
        if walked != classes[-1].size:
            incomplete.add(key)
        if s and nonzero_witness is None:  # the first class with a non-zero sum
            nonzero_witness = _cells_string(sorted(_first_cells(*key, m)))
        sums.append(s)
    well_defined = witness is None and not incomplete
    disjoint_cover = witness is None and count == _nonrook_total(board, m, k)
    if not (well_defined and disjoint_cover):
        witness = witness or _first_unaccounted(board, m, k, incomplete)
    witness = witness or nonzero_witness
    return CoverReport(
        board=board,
        m=m,
        k=k,
        nonrook_count=count,
        classes=tuple(classes),
        class_sums=tuple(sums),
        well_defined=well_defined,
        disjoint_cover=disjoint_cover,
        class_sums_zero=nonzero_witness is None,
        total_zero=(total == 0),
        total_weight=total,
        witness=witness,
    )


def _in_class(cells: tuple[tuple[int, int], ...], key: _Key, m: int) -> bool:
    # whether the column-sorted cells are a member of the key's class: the
    # cells outside the movable columns are the fixed ones, and each movable
    # column holds one rook in the key's level, by _split's (row + m - 1) // m.
    # verify_cover checks each prefix against its split with it
    level, fixed, movable = key
    if len(cells) != len(fixed) + len(movable):
        return False
    rest = []
    for cell in cells:
        if cell[0] not in movable:
            rest.append(cell)
        elif (cell[1] + m - 1) // m != level:
            return False
    return tuple(rest) == fixed


def _nonrook_total(board: FerrersBoard, m: int, k: int) -> int:
    # e_k - r_k, with e_k read off prod(x + h_i): each column takes one of
    # its h_i rows (x^0) or stays empty (x^1); k > n gives 0 for both
    n = board.n
    if k > n:
        return 0
    # the public expand_roots, not _column_recurrence: a traced cover run
    # must reach ffpoly (perfbench's test_traced_run_accounts_for_every_layer)
    return expand_roots(board.heights).coeffs[n - k] - rook_numbers(board, m)[k]


def _first_unaccounted(
    board: FerrersBoard, m: int, k: int, incomplete: Collection[_Key]
) -> str | None:
    """Failure path: the first walked placement that is a member of an
    incomplete class or whose ``_class_key``, the key the tally reads off
    its prefix, disagrees with ``is_m_level_rook_placement``.  None when
    there is none, which leaves the walk itself at fault."""
    for cells in _walk(board.heights, k):
        key = _class_key(cells, m)
        if key in incomplete or (key is None) != is_m_level_rook_placement(
            FilePlacement._trusted(board, cells), m
        ):
            return _cells_string(cells)
    return None
