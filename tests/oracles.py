"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with itertools
(choose columns, then assign rows), deliberately avoiding the library's
depth-first enumerators and incremental-weight walks so the two routes
stay independent.
"""

import itertools
import math

from mlrook.boards import FerrersBoard


def boards_up_to(max_columns, max_height, min_columns=0):
    """Every Ferrers board with at most max_columns columns of height
    at most max_height, the empty board included."""
    for n in range(min_columns, max_columns + 1):
        for heights in itertools.combinations_with_replacement(
            range(max_height + 1), n
        ):
            yield FerrersBoard(heights)


def brute_file_cells(board, k):
    """All k-rook file placements as sorted cell tuples: pick a column
    subset, then assign each column any of its rows."""
    columns = range(1, board.n + 1)
    for subset in itertools.combinations(columns, k):
        row_ranges = [range(1, board.heights[c - 1] + 1) for c in subset]
        for rows in itertools.product(*row_ranges):
            yield tuple(zip(subset, rows))


def file_count_formula(board, k):
    """Number of k-rook file placements: the k-th elementary symmetric
    function of the column heights."""
    return sum(
        math.prod(board.heights[c - 1] for c in subset)
        for subset in itertools.combinations(range(1, board.n + 1), k)
    )


def brute_level_numbers(board, m):
    """Top-down level cell counts by iterating over every single cell."""
    n = board.n
    counts = [0] * n
    for col in range(1, n + 1):
        for row in range(1, board.heights[col - 1] + 1):
            level = (row + m - 1) // m
            counts[level - 1] += 1
    counts.reverse()
    return tuple(counts)


def brute_zones(board, m):
    """(start, end, floor, remainder) of each zone: itertools.groupby runs
    the columns together on their m-floor h - h % m, so each group is a
    maximal run of equal floor."""
    out = []
    start = 1
    for floor, group in itertools.groupby(board.heights, key=lambda h: h - h % m):
        group = list(group)
        out.append((start, start + len(group) - 1, floor, sum(h - floor for h in group)))
        start += len(group)
    return tuple(out)


def brute_census(levels, m):
    """Height vectors of every board whose top-down level numbers equal
    levels, by scanning all weakly increasing heights up to m*n (a cell
    total other than sum(levels) rules a candidate out early)."""
    n = len(levels)
    return [
        heights
        for heights in itertools.combinations_with_replacement(range(m * n + 1), n)
        if sum(heights) == sum(levels)
        and brute_level_numbers(FerrersBoard(heights), m) == tuple(levels)
    ]


def m_falling_factorial(value, k, m):
    """The product ``value * (value - m) * ... * (value - (k-1)*m)``;
    1 for k = 0."""
    return math.prod(value - m * i for i in range(k))


def brute_expand(roots):
    """Power-basis coefficients of ``prod(x + c)`` over roots, low to high,
    by schoolbook multiplication, one factor (x + c) at a time."""
    coeffs = [1]
    for c in roots:
        out = [0] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            out[k] += c * a
            out[k + 1] += a
        coeffs = out
    return tuple(coeffs)


def poly_eval(poly, x):
    """Exact value of an FFPoly at an integer point, respecting its basis:
    Horner over the power basis, or over the nodes 0, m, 2m, ... of the
    m-falling basis.  A bool or non-integer point is refused, so a test
    cannot compare a float by mistake."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"evaluation point {x!r} is not an integer")
    result = 0
    if poly.m is None:
        for c in reversed(poly.coeffs):
            result = result * x + c
    else:
        for k in range(len(poly.coeffs) - 1, -1, -1):
            result = result * (x - k * poly.m) + poly.coeffs[k]
    return result


def brute_weight(cells, m):
    """Weight of a placement given as cell tuples, from the definition."""
    row_counts = {}
    for _, row in cells:
        row_counts[row] = row_counts.get(row, 0) + 1
    total = 1
    for count in row_counts.values():
        for i in range(count):
            total *= 1 - m * i
    return total


def is_mlevel_cells(cells, m):
    levels = [(row + m - 1) // m for _, row in cells]
    return len(levels) == len(set(levels))


def brute_rook_count(board, m, k):
    """Number of k-rook m-level placements by filtering all file placements."""
    return sum(1 for cells in brute_file_cells(board, k) if is_mlevel_cells(cells, m))


def brute_weighted_file_number(board, m, k):
    """Sum of weights over all k-rook file placements, built independently."""
    return sum(brute_weight(cells, m) for cells in brute_file_cells(board, k))


def brute_singleton_by_levels(board, m):
    """Restated singleton rule: no level is partially entered (1..m-1 of
    its m cells) by two or more columns."""
    if board.n == 0 or board.heights[-1] == 0:
        return True
    top_level = (board.heights[-1] + m - 1) // m
    for level in range(1, top_level + 1):
        partial = 0
        for h in board.heights:
            cells_in_level = min(m, max(0, h - m * (level - 1)))
            if 1 <= cells_in_level <= m - 1:
                partial += 1
        if partial >= 2:
            return False
    return True


def brute_class_key(cells, m):
    """(level, fixed cells, movable columns) of a placement's cancellation
    class, from the rule: the canonical level holds the fewest rooks among
    levels with at least two (ties to the lowest); its leftmost rook and
    every rook outside it stay fixed; None when no level holds two."""
    levels = [(row + m - 1) // m for _, row in cells]
    conflicted = [level for level in set(levels) if levels.count(level) >= 2]
    if not conflicted:
        return None
    level = min(conflicted, key=lambda l: (levels.count(l), l))
    inside = [cell for cell, l in zip(cells, levels) if l == level]
    fixed = tuple(sorted([cell for cell, l in zip(cells, levels) if l != level] + inside[:1]))
    return level, fixed, tuple(col for col, _ in inside[1:])


def brute_class_members(key, m):
    """Every member of a class: each movable column takes each row of the
    anchor level."""
    level, fixed, movable = key
    rows = range(m * (level - 1) + 1, m * level + 1)
    for choice in itertools.product(rows, repeat=len(movable)):
        yield tuple(sorted(fixed + tuple(zip(movable, choice))))


def brute_cover(board, m, k):
    """The cancellation partition of the non-rook k-rook file placements,
    checked set by set: each placement is grouped under its class key,
    and each class's regenerated members must map back to that key and
    equal its group.  Returns the fields of a cover report as a dict,
    with the classes as (level, fixed, movable) keys in sorted order."""
    groups = {}
    total = 0
    for cells in brute_file_cells(board, k):
        key = brute_class_key(cells, m)
        if key is not None:
            total += brute_weight(cells, m)
            groups.setdefault(key, set()).add(cells)
    well_defined = disjoint_cover = True
    sums = []
    for key in sorted(groups):
        members = list(brute_class_members(key, m))
        well_defined &= all(brute_class_key(p, m) == key for p in members)
        disjoint_cover &= set(members) == groups[key]
        sums.append(sum(brute_weight(p, m) for p in members))
    return {
        "nonrook_count": sum(len(group) for group in groups.values()),
        "classes": sorted(groups),
        "class_sums": sums,
        "well_defined": well_defined,
        "disjoint_cover": disjoint_cover,
        "class_sums_zero": not any(sums),
        "total_zero": total == 0,
        "total_weight": total,
    }
