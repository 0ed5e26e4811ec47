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
placements.  ``placements._prefixes`` yields each prefix of k - 1 rooks,
and the last rook sweeps the free cells to its right a level of a
column at a time.  Per prefix, computed once: its rooks per level and,
as ``(count, level)``, its two least crowded conflicted levels, which
``_keyer`` turns into the canonical level for a last rook in each level;
its weight, by the public ``weight``; the factor ``1 - rooks_in_row*m``
by which a last rook in each row multiplies that weight; and, built
lazily, the split ``(level, fixed cells, movable columns)`` of each
level a key needs.  A last rook in a level L that the prefix holds joins
L's movable columns when ``(count + 1, L)`` beats the least crowded
other conflicted level, or no other level is conflicted, so every row
of L in that column shares one key.  Otherwise, and for a last rook in
a level the prefix leaves empty, the least crowded other conflicted
level is canonical and the last rook is its last fixed cell; with none,
the placement is an m-level rook placement.  So each cell is keyed and
weighed in O(1) and added to its key's tally ``[members, weight sum]``,
made when the key is first seen.  ``_class_key``, behind
``canonical_class`` and the other public names, keys one placement the
same way: ``_keyer`` and ``_split`` applied to its prefix and last rook.

``well_defined`` is still proved, with membership checked amortised.
Each split is checked once against its prefix, in O(k): the prefix's
cells outside the movable columns are the fixed cells, in order, and
each movable rook lies in the level.  A movable last rook must lie in
the key's level, checked once per level of a column; a fixed last rook
lies right of every prefix column, so appended to a valid split it
makes a member.  A placement that fails is a witness and is not
tallied.  The walked placements are distinct, so a class whose tally
reaches its size ``m ** len(movable)`` was walked in full, each member
mapping back to it; its tallied weights must sum to zero.  One loop
over the sorted keys checks both after the walk.  A key is a function,
so the classes are disjoint, and they are exhaustive when the tallied
count equals the non-rook count and ``e_k - r_k``: e_k, the number of
file placements of k rooks, is the coefficient of ``x^(n-k)`` in
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


def _row_factors(prefix: tuple[tuple[int, int], ...], m: int, top: int) -> list[int]:
    # factors[r], rows 0..top: 1 - (prefix rooks in row r)*m, what a last
    # rook in row r multiplies the prefix weight by
    factors = [1] * (top + 1)
    for _, row in prefix:
        factors[row] -= m
    return factors


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
        fixed = tuple(cell for cell in first.cells if cell[0] not in movable)
        object.__setattr__(self, "fixed_cells", fixed)
        object.__setattr__(self, "movable_columns", movable)
        for col in movable:
            if self.board.column_height(col) < self.m * self.level:
                raise NonSingletonBoardError(
                    f"column {col} meets level {self.level} in fewer than {self.m} cells;"
                    " the class sweep would leave the board"
                )
        key = (self.level, fixed, movable)
        if _class_key(first.cells, self.m) != key:
            raise ValueError(f"not the canonical class of its first member {first}")

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
    fixed, movable = cls.fixed_cells, cls.movable_columns
    return tuple(
        FilePlacement._trusted(cls.board, tuple(sorted(fixed + tuple(zip(movable, swept[::-1])))))
        for swept in product(_rows_of_level(cls.level, cls.m), repeat=len(movable))
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

    One walk over the prefixes of k - 1 rooks tallies each non-rook
    placement once under its key, in O(1) per last-rook cell, and one
    loop over the sorted keys then checks each class's count and sum, as
    the module docstring describes.  A placement outside the class its
    key names is a witness and is not tallied.  Only a failed count walks
    again, to name one.  Requires a singleton board.
    """
    _check_m(m)
    _check_k(k)
    if not is_singleton(board, m):
        raise NonSingletonBoardError(f"board {board} is not a singleton board for m={m}")

    heights = board.heights
    n = len(heights)
    tallies: dict[_Key, list[int]] = {}  # key -> [walked members, weight sum]
    count = total = 0
    witness: str | None = None
    # each column's levels as (level, low, high); only for a walk, as heights may be huge
    spans = [[(low // m + 1, low, min(low + m, h)) for low in range(0, h, m)]
             for h in (heights if 2 <= k <= n else ())]
    # a single rook never conflicts; _prefixes yields nothing for k < 2
    for prefix, first, _ in _prefixes(heights, k):
        actions, elsewhere = _keyer(prefix, m)
        # the public weight, not _row_weight: a traced cover run must reach
        # rooktheory (perfbench's test_traced_run_accounts_for_every_layer)
        w = weight(FilePlacement._trusted(board, prefix), m)
        factors = _row_factors(prefix, m, heights[-1])
        splits: dict[int, tuple[_Key, bool]] = {}  # canonical level -> (split, member)
        for c in range(first, n + 1):
            for level, low, high in spans[c - 1]:  # one level of column c at a time
                action = actions.get(level, elsewhere)
                if action is None:  # m-level rook placements
                    continue
                canonical, movable = action
                split = splits.get(canonical)
                if split is None:
                    key = _split(prefix, canonical, m)
                    split = splits[canonical] = key, _in_class(prefix, key, m)
                (canonical, fixed, columns), member = split
                count += high - low
                if not member or movable and canonical != level:
                    total += w * sum(factors[low + 1 : high + 1])
                    witness = witness or _cells_string(prefix + ((c, low + 1),))
                elif movable:  # every row of the level: one key
                    ws = w * sum(factors[low + 1 : high + 1])
                    total += ws
                    key = canonical, fixed, columns + (c,)
                    tally = tallies.get(key) or tallies.setdefault(key, [0, 0])
                    tally[0] += high - low
                    tally[1] += ws
                else:  # one key per row, the last rook its last fixed cell
                    for r in range(low + 1, high + 1):
                        wr = w * factors[r]
                        total += wr
                        key = canonical, fixed + ((c, r),), columns
                        tally = tallies.get(key) or tallies.setdefault(key, [0, 0])
                        tally[0] += 1
                        tally[1] += wr

    sizes = [m**j for j in range(min(k, n) + 1)]  # class sizes m**j; _in_class caps j at k <= n
    tallied, incomplete, nonzero_witness, classes, sums = 0, set(), None, [], []
    for key in sorted(tallies):
        walked, s = tallies[key]
        tallied += walked
        if walked != sizes[len(key[2])]:
            incomplete.add(key)
        if s and nonzero_witness is None:  # the first class with a non-zero sum
            nonzero_witness = _cells_string(sorted(_first_cells(*key, m)))
        classes.append(CancellationClass._trusted(board, m, key))
        sums.append(s)
    well_defined = tallied == count and not incomplete
    disjoint_cover = tallied == count == _nonrook_total(board, m, k)
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
    # column holds one rook, in the level's m rows (low < row <= low + m).
    # verify_cover checks each prefix against its split with it
    level, fixed, movable = key
    if len(cells) != len(fixed) + len(movable):
        return False
    low = m * (level - 1)
    rest = []
    for cell in cells:
        if cell[0] not in movable:
            rest.append(cell)
        elif not low < cell[1] <= low + m:
            return False
    return tuple(rest) == fixed


def _nonrook_total(board: FerrersBoard, m: int, k: int) -> int:
    # e_k - r_k, with e_k read off prod(x + h_i): each column takes one of
    # its h_i rows (x^0) or stays empty (x^1)
    n = board.n
    if k > n:
        return 0
    # the public expand_roots, not _column_recurrence: a traced cover run
    # must reach ffpoly (perfbench's test_traced_run_accounts_for_every_layer)
    return expand_roots(board.heights).coeffs[n - k] - rook_number(board, m, k)


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
