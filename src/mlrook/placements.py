"""File, rook, and m-level rook placements with canonical enumeration.

A *file placement* puts at most one rook per column; rows are free.
Requiring distinct rows gives classical rook placements, and requiring
distinct levels (blocks of m rows) gives m-level rook placements, so
the three kinds nest: m-level rook placements are rook placements are
file placements.

A cell is a plain ``(column, row)`` tuple of ints, 1-indexed, as the
walker yields it and as ``FilePlacement.cells`` holds it.
``FilePlacement`` is a frozen record with slots; the placements the
library derives itself are stored through the slot descriptors,
without re-validation.

One iterative walker enumerates all of them, in ascending lexicographic
order of their sorted (column, row) cells.  All rooks but the last form
an odometer, ``_prefixes``, that keeps one (column, row) per rook
instead of recursing, so it has no depth limit; it yields each prefix
of k - 1 rooks with the first column left free.  ``_walk`` sweeps the
last rook over the free cells to the prefix's right in one inner loop.
Each column's one-cell tuples are memoised in one group per level, built
by the first sweep that finds the level free; a used level takes one step.
``cancellation.verify_cover`` reads the same odometer and handles each
prefix's cells itself.  Streams are generated lazily.

Two sweeps count placements exactly without visiting them, reading
only the column heights and none of the product forms.  The column
sweep of ``rook_numbers`` gives the m-level rook numbers from two
vectors indexed by the rook count, in O(n^2) integer steps.  The row
sweep ``_row_sweep`` gives the weighted file numbers run by run of
equal row length, in O(n^3); it is the count that
``rooktheory.verify_factorizations`` checks the column product against.
The weighted file numbers themselves come from the column recurrence
``_column_recurrence``, the column product's own induction, in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .boards import FerrersBoard, _check_int, _check_m

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


@dataclass(frozen=True, slots=True)
class FilePlacement:
    """Rooks on a Ferrers board, at most one per column.

    Cells are ``(column, row)`` int tuples kept sorted by column.
    Equality and hashing look only at the occupied cells, so placements
    with identical rooks on different boards compare equal; the board is
    carried for validation.  The record has slots and no ``__dict__``.
    """

    board: FerrersBoard = field(compare=False)
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.board, FerrersBoard):
            raise ValueError(f"board {self.board!r} is not a FerrersBoard")
        pairs = []
        for cell in self.cells:  # before sorting, which may compare them
            try:
                col, row = cell
            except (TypeError, ValueError):
                raise InvalidPlacementError(f"cell {cell!r} is not a (column, row) pair") from None
            if any(isinstance(x, bool) or not isinstance(x, int) for x in (col, row)):
                raise InvalidPlacementError(f"cell {col!r}:{row!r} is not a pair of integers")
            pairs.append((col, row))
        cells = tuple(sorted(pairs))
        _set_cells(self, cells)
        heights = self.board.heights
        prev_col = None  # not 0, which would read a column-0 cell as a repeat
        for col, row in cells:
            if col == prev_col:
                raise InvalidPlacementError(f"column {col} is occupied twice")
            if not (1 <= col <= len(heights) and 1 <= row <= heights[col - 1]):
                raise InvalidPlacementError(f"cell {col}:{row} is not on the board")
            prev_col = col

    @classmethod
    def _trusted(cls, board: FerrersBoard, cells: tuple) -> "FilePlacement":
        # cells the library derived: sorted by column, on the board, one
        # rook per column
        placement = _new(cls)
        _set_board(placement, board)
        _set_cells(placement, cells)
        return placement

    def level_counts(self, m: int) -> dict[int, int]:
        """Number of rooks in each occupied level."""
        _check_m(m)
        counts: dict[int, int] = {}
        for _, row in self.cells:
            level = (row + m - 1) // m
            counts[level] = counts.get(level, 0) + 1
        return counts

    def without_column(self, column: int) -> "FilePlacement":
        """New placement with the rook of ``column`` removed."""
        _check_int("column", column)
        kept = tuple(cell for cell in self.cells if cell[0] != column)
        if len(kept) == len(self.cells):
            raise ValueError(f"column {column} holds no rook")
        return FilePlacement._trusted(self.board, kept)  # a subset stays valid

    def to_string(self) -> str:
        """Text form ``"col:row;col:row"`` sorted by column; empty for no rooks."""
        return _cells_string(self.cells)

    def __str__(self) -> str:
        return self.to_string()


# The slot descriptors store a field without the frozen ``__setattr__``.
_new = object.__new__
_set_board = FilePlacement.board.__set__
_set_cells = FilePlacement.cells.__set__


def _cells_string(cells: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{col}:{row}" for col, row in cells)


def is_m_level_rook_placement(placement: FilePlacement, m: int) -> bool:
    """True iff no two rooks share a level (columns are distinct already)."""
    return len(placement.level_counts(m)) == len(placement.cells)


def _check_k(k: int) -> None:
    _check_int("rook count k", k, 0)


def _prefixes(
    heights: tuple[int, ...], k: int, m: int | None = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], int, set[int]]]:
    """Yield ``(prefix, first, used)`` for every placement of the first
    k - 1 of k rooks, in canonical order: the prefix's ``(column, row)``
    cells, the first column free for the last rook, and the levels the
    prefix holds (the m-level walk only; otherwise empty).

    ``m=None`` places file rooks; an integer m also allows at most one
    rook per level.  The rooks form an odometer: rook d keeps its own
    column and row and is advanced in place, and when it runs out of
    columns the walk backs up to rook d - 1.  Nothing recurses.  Each
    prefix leaves at least one column free; ``used`` is updated in place,
    so it holds for the prefix just yielded only.  Nothing is yielded for
    k < 2 or k > n: ``_walk`` places a single rook itself.
    """
    n = len(heights)
    if not 2 <= k <= n:  # before sizing the per-rook state by k
        return
    used: set[int] = set()
    # cells[d] is rook d's current (column, row); row 0 means no row tried yet
    cells = [(1, 0)] * (k - 1)
    d = 0
    while d >= 0:
        col, row = cells[d]
        if m is not None and row:
            used.discard((row + m - 1) // m)
        row += 1
        last_col = n - k + d + 1  # leaves one column for each later rook
        while col <= last_col:
            height = heights[col - 1]
            if m is not None:  # a used level is skipped whole, to the next level's first row
                while row <= height and (row + m - 1) // m in used:
                    row = (row + m - 1) // m * m + 1
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
        if d + 2 < k:
            d += 1
            cells[d] = (col + 1, 0)
            continue
        yield tuple(cells), col + 1, used


def _walk(
    heights: tuple[int, ...], k: int, m: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the placements of exactly k rooks, one per column, as
    ``(column, row)`` tuples in canonical order.

    ``m=None`` walks file placements; an integer m also allows at most
    one rook per level.  For each prefix of k - 1 rooks from
    ``_prefixes``, the last rook sweeps every free cell to its right in
    one inner loop, yielding the prefix plus that cell.  The memo holds
    each column as ``(level, one-tuples)`` groups, one per level, so a
    sweep skips a used level in one test; the file walk's whole column
    is one group, and its ``used`` is empty.  The first sweep to find a
    level free builds its group: a level every prefix holds costs nothing,
    and ``next()`` answers at once on a tall column.  k = 1 keeps no memo.
    """
    if k == 0:
        yield ()
        return
    n = len(heights)
    if k == 1:
        for col, height in enumerate(heights, start=1):
            for row in range(1, height + 1):
                yield ((col, row),)
        return
    groups: list = [None] * (n + 1)  # groups[c]: column c's (level, one-tuples) list
    for prefix, first, used in _prefixes(heights, k, m):
        for c in range(first, n + 1):
            memo = groups[c]
            if memo is None:
                memo = []
                end = heights[c - 1] + 1
                rows = m or end  # rows per group: the file walk's column is one group
                for level, low in enumerate(range(1, end, rows), start=1):
                    swept = []
                    memo.append((level, swept))
                    if level in used:  # left empty, for the first sweep that finds it free
                        continue
                    for r in range(low, min(low + rows, end)):
                        one = ((c, r),)
                        swept.append(one)
                        yield prefix + one
                groups[c] = memo
            else:
                for level, swept in memo:
                    if level not in used:
                        if not swept:  # left empty by the first sweep (m-level walks only)
                            top = min(m * level, heights[c - 1])  # the level's last row here
                            swept += [((c, r),) for r in range(m * level - m + 1, top + 1)]
                        for one in swept:
                            yield prefix + one


def enumerate_file_placements(board: FerrersBoard, k: int) -> Iterator[FilePlacement]:
    """Yield every file placement of exactly k rooks, in canonical order.

    k = 0 yields the single empty placement; k > n yields nothing.
    """
    _check_k(k)
    # the stores of ``_trusted``, inlined: a call per record costs more
    # than walking to it
    for cells in _walk(board.heights, k):
        placement = _new(FilePlacement)
        _set_board(placement, board)
        _set_cells(placement, cells)
        yield placement


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
        placement = _new(FilePlacement)
        _set_board(placement, board)
        _set_cells(placement, cells)
        yield placement


def _row_sweep(heights: tuple[int, ...], t: int) -> tuple[int, ...]:
    """``(s_0, ..., s_n)``: s_k sums, over every file placement of k rooks,
    the product over rows of ``ff(1, rooks_in_row, t)``.

    One sweep over the rows, top-down, in runs of equal row length: a
    run of R rows spans the L right-most columns, and every column used
    so far is among them.  With u columns used, the run puts j new rooks
    in j of the L - u free columns, and summed over their rows they
    weigh ``R (R - t) ... (R - (j-1) t)``: a rook joining a row that
    holds c rooks multiplies the weight by ``1 - c*t``, so the i-th rook
    of the run, summed over the run's rows, gives ``R - t*(i-1)``.  That
    is O(n^3) integer steps whatever the heights.  The sweep reads only
    the heights, never the column recurrence or a product form, so the
    column product checked against it is checked against a count.
    """
    n = len(heights)
    s = [1] + [0] * n
    for i in range(n - 1, -1, -1):
        rows = heights[i] - (heights[i - 1] if i else 0)
        if not rows:
            continue
        span = n - i  # the run's row length; rows above it used at most span - 1 columns
        for u in range(span - 1, -1, -1):  # downwards, so s[u] is read before it grows
            w = s[u]
            if not w:
                continue
            term = 1  # C(span - u, j) * rows (rows - t) ... (rows - (j-1) t)
            for j in range(1, span - u + 1):
                term = term * (span - u - j + 1) * (rows - (j - 1) * t) // j
                if not term:
                    break
                s[u + j] += w * term
    return tuple(s)


def _column_recurrence(heights: tuple[int, ...], t: int) -> tuple[int, ...]:
    """``(s_0, ..., s_n)``: the coefficients of ``prod(x + b_i - t*(i-1))``
    in the basis ``ff(x, n-k, t)``, so that ``sum_k s_k * ff(x, n-k, t)``
    is the product, built one column of height b at a time by
    ``s_k <- s_k + (b - t*(k-1)) * s_{k-1}``.  At t = 0 this is the power
    basis, and s_k is e_k, the number of file placements of k rooks.

    On a Ferrers board this is ``_row_sweep(heights, t)``, counted by
    columns: the k - 1 rooks already placed sit in rows the new column
    also has, so its b rows weigh ``b - t*(k-1)`` in all.  Every s_k
    above ``top`` is zero, so the inner loop stops there.
    """
    s = [1] + [0] * len(heights)
    top = 0
    for b in heights:
        for k in range(top + 1, 0, -1):
            s[k] += (b - t * (k - 1)) * s[k - 1]
        if s[top + 1]:
            top += 1
    return tuple(s)


def rook_numbers(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """All m-level rook numbers ``(r_0, ..., r_n)``, in O(n^2) steps.

    One sweep over the columns.  Heights weakly increase, so a level
    wholly below a column top is whole in every later column, and holds
    at most one rook.  So ``s[k]`` counts the placements of k rooks with
    the level cut by the column top empty, and ``c[k]`` those with one
    rook in it.  A column of ``top`` whole levels and ``rem`` more rows
    stays empty, or puts a rook in a free whole level (m rows each) or
    in the cut level.  The sweep reads only the heights, never a product
    form, so it is the independent side of every p_m check.
    """
    _check_m(m)
    n = len(board.heights)
    s = [1] + [0] * (n + 1)
    c = [0] * (n + 2)
    whole = 0  # whole levels below the previous column top
    hi = 0  # the highest k with s[k] or c[k] non-zero
    for h in board.heights:
        top, rem = divmod(h, m)
        if top > whole:  # the cut level is now whole
            for k in range(hi + 1):
                s[k] += c[k]
                c[k] = 0
            whole = top
        for k in range(hi, -1, -1):  # downwards, so index k is read before it grows
            free = (top - k) * m
            s[k + 1] += s[k] * free
            c[k + 1] += s[k] * rem + c[k] * (free + m)
        if s[hi + 1] or c[hi + 1]:
            hi += 1
    return tuple(s[k] + c[k] for k in range(n + 1))


def rook_number(board: FerrersBoard, m: int, k: int) -> int:
    """The m-level rook number ``r_k``; 0 for k beyond the column count."""
    _check_m(m)
    _check_k(k)
    if k > board.n:
        return 0
    return rook_numbers(board, m)[k]
