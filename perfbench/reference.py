"""Reference answers the benchmark checks the library against.

Nothing here imports mlrook.  Every answer comes from a counting formula
or a recurrence that the library does not use, so a timed call can never
be checked against itself:

- f_k from the column recurrence ``f_k += (b_i - m(k-1)) * f_{k-1}``;
  with m = 0 the same recurrence gives e_k(b), the file-placement counts;
- r_k as the m-falling coefficients of the zone product, expanded and
  converted by this module's own code;
- product forms evaluated directly as ``prod(x + c)`` at integer points;
- level numbers, zones and the singleton test from per-column arithmetic;
- the cancellation class count by walking level patterns, not cells.

Boards are plain tuples of weakly increasing column heights.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

# Evaluation points for polynomial checks.  The large point separates
# polynomials that agree at the small ones.
POINTS = (-3, -1, 0, 1, 2, 5, 1_000_003)


def column_recurrence(heights, m):
    """(f_0, ..., f_n) by the column recurrence; m = 0 gives e_k(heights)."""
    f = [1]
    for b in heights:
        f.append(0)
        for k in range(len(f) - 1, 0, -1):
            f[k] += (b - m * (k - 1)) * f[k - 1]
    return tuple(f)


def file_counts(heights):
    """(e_0, ..., e_n): the number of file placements of each size."""
    return column_recurrence(heights, 0)


def zones(heights, m):
    """Maximal runs of equal m-floor as (start, end, floor, remainder), 1-indexed."""
    out = []
    for floor, run in itertools.groupby(enumerate(heights, 1), key=lambda t: t[1] - t[1] % m):
        run = list(run)
        remainder = sum(h - floor for _, h in run)
        out.append((run[0][0], run[-1][0], floor, remainder))
    return tuple(out)


def level_numbers(heights, m):
    """Cells per level, top level of the n-level grid first.

    A column of height h = q*m + r fills levels 1..q and puts r cells in
    level q+1; heights must not exceed m*n.
    """
    n = len(heights)
    full = [0] * (n + 1)
    partial = [0] * (n + 1)
    for h in heights:
        q, r = divmod(h, m)
        full[q] += 1
        partial[q] += r
    counts = []
    columns_above = 0  # columns filling the current level completely
    for level in range(n - 1, -1, -1):
        columns_above += full[level + 1]
        counts.append(columns_above * m + partial[level])
    return tuple(counts)


def is_singleton(heights, m):
    """No level is entered partially by two columns."""
    partial_levels = [h // m for h in heights if h % m]
    return len(partial_levels) == len(set(partial_levels))


def gjw_constants(heights):
    return [b - i for i, b in enumerate(heights)]


def br_constants(heights, m):
    return [b - m * i for i, b in enumerate(heights)]


def zone_constants(heights, m):
    out = []
    for start, end, floor, remainder in zones(heights, m):
        for col in range(start, end + 1):
            out.append(floor - (col - 1) * m + (remainder if col == end else 0))
    return out


def level_constants(heights, m):
    return [l - m * j for j, l in enumerate(level_numbers(heights, m))]


def constants(form, heights, m):
    """Root constants c_i of a product form prod(x + c_i)."""
    if form == "gjw":
        return gjw_constants(heights)
    if form == "br":
        return br_constants(heights, m)
    if form == "zone":
        return zone_constants(heights, m)
    if form == "level":
        return level_constants(heights, m)
    raise ValueError(f"unknown product form {form!r}")


def product_values(consts, points=POINTS):
    """prod(x + c) evaluated directly at every point."""
    return tuple(math.prod(x + c for c in consts) for x in points)


def power_values(coeffs, points=POINTS):
    """A power-basis coefficient list (low to high) evaluated by Horner."""
    out = []
    for x in points:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return tuple(out)


def mfalling_values(coeffs, m, points=POINTS):
    """sum(c_k * x(x-m)...(x-(k-1)m)) evaluated at every point."""
    out = []
    for x in points:
        acc = 0
        for k in range(len(coeffs) - 1, -1, -1):
            acc = acc * (x - k * m) + coeffs[k]
        out.append(acc)
    return tuple(out)


def expand(consts):
    """Power-basis coefficients of prod(x + c), low to high."""
    acc = [1]
    for c in consts:
        nxt = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] += c * a
            nxt[i + 1] += a
        acc = nxt
    return acc


def to_mfalling(coeffs, m):
    """Power-basis coefficients rewritten in the m-falling basis."""
    cur = list(coeffs)
    out = []
    node = 0
    while cur:
        # divide by (x - node): the remainder is the next m-falling coefficient
        carry = 0
        quotient = [0] * (len(cur) - 1)
        for i in range(len(cur) - 1, -1, -1):
            carry = cur[i] + node * carry
            if i:
                quotient[i - 1] = carry
        out.append(carry)
        cur = quotient
        node += m
    return out


def rook_numbers(heights, m):
    """(r_0, ..., r_n): r_k is the coefficient of ff(x, n-k, m) in the zone product."""
    n = len(heights)
    ff = to_mfalling(expand(zone_constants(heights, m)), m)
    ff += [0] * (n + 1 - len(ff))
    return tuple(ff[n - k] for k in range(n + 1))


def rook_walk_work(heights, m):
    """Row visits of the column-by-column m-level walk over all k.

    Every m-level placement on columns 1..i is extended through the
    b_{i+1} rows of the next column (plus the skip branch).
    """
    work = 0
    for i in range(len(heights)):
        work += sum(rook_numbers(heights[:i], m)) * (1 + heights[i])
    return work + sum(rook_numbers(heights, m))


def cover_counts(heights, m, k):
    """(non-rook placements, cancellation classes) for k rooks on a singleton board.

    Walks level patterns (which level each chosen column's rook sits in)
    instead of cells.  A pattern stands for prod(cells of the column in
    that level) placements; its classes fix every rook but the movable
    ones, which on a singleton board meet the anchor level in all m rows.
    """
    levels = [(h + m - 1) // m for h in heights]
    nonrook = classes = 0
    for cols in itertools.combinations(range(len(heights)), k):
        for pattern in itertools.product(*(range(1, levels[c] + 1) for c in cols)):
            counts = Counter(pattern)
            conflicted = [(cnt, lvl) for lvl, cnt in counts.items() if cnt >= 2]
            if not conflicted:
                continue
            cells = [min(m, heights[c] - m * (j - 1)) for c, j in zip(cols, pattern)]
            nonrook += math.prod(cells)
            anchor = min(conflicted)[1]
            in_anchor = [i for i, j in enumerate(pattern) if j == anchor]
            movable = set(in_anchor[1:])
            if any(cells[i] != m for i in movable):
                raise ValueError(f"board {heights} is not a singleton board for m={m}")
            classes += math.prod(c for i, c in enumerate(cells) if i not in movable)
    return nonrook, classes


def census_count(levels, m):
    """Boards with b_n <= m*n whose top-down level numbers equal ``levels``."""
    n = len(levels)
    target = tuple(levels)
    return sum(
        1
        for heights in itertools.combinations_with_replacement(range(m * n + 1), n)
        if level_numbers(heights, m) == target
    )


def census_candidates(n, m):
    """How many height vectors the census scans: C(mn + n, n)."""
    return math.comb(m * n + n, n)
