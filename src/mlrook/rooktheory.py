"""Rook polynomials, weighted file numbers, and their product forms.

For an n-column Ferrers board and block size m the central object is

    p_m(B, x) = sum_k r_k * ff(x, n-k, m),

the generating polynomial of the m-level rook numbers over the
m-falling basis.  Three root tuples give product forms for it:

- column form ``b_i - m*(i-1)``: expands to p_m exactly on singleton
  boards (for m = 1 this is the classical column factorization, valid
  on every Ferrers board);
- zone form: per column, the m-floor shifted by ``-(i-1)*m``, plus the
  zone's remainder on the zone's last column;
- level form ``l_j - m*(j-1)`` from the top-down level numbers.

The zone and level forms expand to p_m on every Ferrers board.  The
column form, on every Ferrers board, expands instead to the generating
polynomial of the weighted file numbers f_k, where each file placement
is weighted by a product over rows of ``ff(1, rooks_in_row, m)``.  On
singleton boards the two generating polynomials coincide, which forces
the weights of non-rook file placements to cancel (see cancellation).

f_k comes from the column recurrence in ``placements``, the column
product's own induction, in O(n^2) integer steps.  Two sweeps in
``placements`` count the same numbers from the column heights alone:
``rook_numbers``' column sweep gives r_k, and ``_row_sweep`` gives f_k
row run by row run.  Neither reads a product form or the recurrence, so
each is a count the products are checked against, not their own
induction: the column sweep is the independent side of every p_m check,
and the row sweep that of ``verify_factorizations``' ``file`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

from .boards import (
    FerrersBoard,
    _check_int,
    _check_m,
    _fits_levels,
    is_singleton,
    level_numbers,
    zones,
)
from .ffpoly import FFPoly, expand_roots
from .placements import FilePlacement, _column_recurrence, _row_sweep, rook_numbers

__all__ = [
    "FactorizationReport",
    "br_roots",
    "census_level_numbers",
    "gjw_roots",
    "level_roots",
    "m_level_equivalent",
    "m_level_rook_poly",
    "verify_factorizations",
    "weight",
    "weighted_file_numbers",
    "weighted_file_poly",
    "zone_roots",
]


def weight(placement: FilePlacement, m: int) -> int:
    """Product over rows of ``ff(1, rooks_in_row, m)``.

    Equals 1 on every m-level rook placement (each row holds 0 or 1
    rooks) and may be negative or large otherwise.
    """
    _check_m(m)
    return _row_weight(placement.cells, m)


def _row_weight(cells: Iterable[tuple[int, int]], m: int) -> int:
    # ``weight`` of the placement given by its (column, row) cells: adding
    # a rook to a row already holding c rooks multiplies by ff's next
    # factor, 1 - c*m
    rows: dict[int, int] = {}
    w = 1
    for _, row in cells:
        c = rows.get(row, 0)
        if c:
            w *= 1 - c * m
        rows[row] = c + 1
    return w


def weighted_file_numbers(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """All weighted file numbers ``(f_0, ..., f_n)``, exactly.

    Adding a rook to a row already holding c rooks multiplies the weight
    by ``1 - c*m``, so a column of height b adds ``b - m*(k-1)`` times
    ``f_{k-1}`` to ``f_k``: the column recurrence, in O(n^2) steps.
    """
    _check_m(m)
    return _column_recurrence(board.heights, m)


def gjw_roots(board: FerrersBoard) -> tuple[int, ...]:
    """Column root constants ``b_i - (i-1)`` of the classical product form:
    the ``br`` roots at m = 1."""
    return br_roots(board, 1)


def br_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Column root constants ``b_i - m*(i-1)``.

    Defined for every Ferrers board; the expansion equals p_m only on
    singleton boards, but always equals the weighted-file polynomial.
    """
    _check_m(m)
    return tuple(sorted(b - m * i for i, b in enumerate(board.heights)))


def zone_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Zone root constants: per column the m-floor shifted by ``-(i-1)*m``,
    with the zone remainder added on the last column of each zone."""
    _check_m(m)
    constants = []
    for zone in zones(board, m):
        for i in range(zone.start, zone.end + 1):
            c = zone.floor - (i - 1) * m
            if i == zone.end:
                c += zone.remainder
            constants.append(c)
    return tuple(sorted(constants))


def level_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Level root constants ``l_j - m*(j-1)`` from the top-down level numbers.

    Requires the board to fit its n ambient levels (``b_n <= m*n``).
    """
    levels = level_numbers(board, m)
    return tuple(sorted(l - m * j for j, l in enumerate(levels)))


def _basis_sum_poly(values: Iterable[int], m: int) -> FFPoly:
    # sum_k values[k] * ff(x, n-k, m), expanded into the power basis
    return FFPoly.mfalling(tuple(reversed(tuple(values))), m).to_power()


def m_level_rook_poly(board: FerrersBoard, m: int) -> FFPoly:
    """The polynomial ``sum_k r_k * ff(x, n-k, m)`` in the power basis,
    with the rook numbers from the column sweep of ``rook_numbers``."""
    return _basis_sum_poly(rook_numbers(board, m), m)


def weighted_file_poly(board: FerrersBoard, m: int) -> FFPoly:
    """The polynomial ``sum_k f_k * ff(x, n-k, m)`` in the power basis,
    with the weighted file numbers from the column recurrence of
    ``weighted_file_numbers``."""
    return _basis_sum_poly(weighted_file_numbers(board, m), m)


# Each form's power-basis polynomial, as ``poly --form`` names it.  A lambda
# looks its function up when called, so a wrapper bound later to the
# module-level name (as perfbench's tracer binds them) is the one used.
_FORMS = {
    "pm": lambda board, m: m_level_rook_poly(board, m),
    "file": lambda board, m: weighted_file_poly(board, m),
    "gjw": lambda board, m: expand_roots(gjw_roots(board)),
    "br": lambda board, m: expand_roots(br_roots(board, m)),
    "zone": lambda board, m: expand_roots(zone_roots(board, m)),
    "level": lambda board, m: expand_roots(level_roots(board, m)),
}

# Each identity check: its FactorizationReport field, its JSON and
# ``details`` key, where it holds (looked up late, as in _FORMS), and the two
# forms it compares.  ``gjw`` compares the ``br`` form, since gjw_roots(board)
# is br_roots(board, 1); "rows" is the row sweep's f_k polynomial, which
# reads no product form.
_CHECKS = {
    "gjw": ("gjw", "gjw", lambda board, m: m == 1, "br", "pm"),
    "br": ("br_equals_pm", "br_equals_pm", lambda board, m: is_singleton(board, m), "br", "pm"),
    "zone": ("zone_equals_pm", "zone", lambda board, m: True, "zone", "pm"),
    "level": ("level_equals_pm", "level", lambda board, m: _fits_levels(board, m), "level", "pm"),
    "file": ("file_equals_br_product", "file", lambda board, m: True, "rows", "br"),
}
CHECK_NAMES = tuple(_CHECKS)


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of the product-form identity checks for one (board, m).

    Each field is True/False when the check ran and None when it was not
    requested or lies outside its domain (see ``verify_factorizations``).
    ``details`` holds both power-basis coefficient vectors for every
    failed check.
    """

    board: FerrersBoard
    m: int
    gjw: bool | None
    br_equals_pm: bool | None
    zone_equals_pm: bool | None
    level_equals_pm: bool | None
    file_equals_br_product: bool | None
    details: Mapping[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no check that ran failed."""
        return False not in (getattr(self, attr) for attr, *_ in _CHECKS.values())

    def to_json_dict(self) -> dict:
        return {
            "board": str(self.board),
            "m": self.m,
            "checks": {key: getattr(self, attr) for attr, key, *_ in _CHECKS.values()},
            "details": {name: dict(d) for name, d in self.details.items()},
        }


def verify_factorizations(
    board: FerrersBoard, m: int, checks: Collection[str] | None = None
) -> FactorizationReport:
    """Compare the expanded product forms against the polynomials built
    from two sweeps that read only the column heights and none of the
    product forms: p_m from ``rook_numbers``' column sweep, and, for the
    ``file`` check, the weighted file numbers from the row sweep
    ``_row_sweep``.

    The ``file`` check does not read ``weighted_file_numbers``: the
    column recurrence behind that is the column product's own
    induction, so comparing the two would prove nothing.

    ``checks`` limits which identities run (names from ``CHECK_NAMES``);
    by default all applicable ones run.  A check outside its domain
    (``gjw`` at m != 1, ``br`` off singleton boards, ``level`` on boards
    taller than m*n) is None and builds nothing.  Comparisons are
    coefficient-wise on fully expanded power-basis polynomials.
    """
    _check_m(m)
    if isinstance(checks, str):  # a str is a collection of one-letter names
        raise ValueError(
            f"checks takes a collection of names, for example ({checks!r},), not a str"
        )
    requested = frozenset(checks) if checks is not None else frozenset(CHECK_NAMES)
    unknown = requested.difference(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")

    polys: dict[str, FFPoly] = {}  # each form built once, when a check first needs it

    def form(name: str) -> FFPoly:
        if name not in polys:
            polys[name] = (
                _basis_sum_poly(_row_sweep(board.heights, m), m) if name == "rows"
                else _FORMS[name](board, m)
            )
        return polys[name]

    results: dict[str, bool | None] = {}
    details: dict[str, dict] = {}
    for name, (attr, key, holds, lhs_form, rhs_form) in _CHECKS.items():
        results[attr] = None
        if name in requested and holds(board, m):
            lhs, rhs = form(lhs_form), form(rhs_form)
            results[attr] = lhs == rhs
            if not results[attr]:
                details[key] = {"lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs)}
    return FactorizationReport(board=board, m=m, details=details, **results)


def m_level_equivalent(b1: FerrersBoard, b2: FerrersBoard, m: int) -> bool:
    """Same column count and identical m-level rook numbers.

    For equal column counts this is the same as having equal p_m.
    """
    _check_m(m)
    return b1.n == b2.n and rook_numbers(b1, m) == rook_numbers(b2, m)


def census_level_numbers(
    levels: Iterable[int], m: int
) -> tuple[FerrersBoard, ...]:
    """All Ferrers boards whose top-down level numbers equal ``levels``.

    Builds them top level first: the columns already placed give m cells
    each, and new columns topping out in the level give the rest, 1..m
    cells each, added right to left in non-increasing parts so heights
    stay sorted.  Every split is tried, so the answer is complete.
    Boards come back in lexicographic height order; the empty tuple is
    a valid (empty) answer.
    """
    _check_m(m)
    levels = tuple(levels)
    for l in levels:
        _check_int("level number", l, 0)
    n = len(levels)
    found = []
    # (j, rest, cap, tops): level n-j needs rest more cells from new columns
    # of at most cap cells each; tops holds the placed heights right to left
    stack = [(-1, 0, m, ())]
    while stack:
        j, rest, cap, tops = stack.pop()
        free = n - len(tops)
        if rest == 0 and j + 1 == n:
            found.append((0,) * free + tops[::-1])
        elif rest == 0:  # level n-j is complete: open the one below it
            stack.append((j + 1, levels[j + 1] - m * len(tops), m, tops))
        elif 0 < rest <= cap * free:  # else the free columns cannot hold the rest
            for part in range(min(cap, rest), -(-rest // free) - 1, -1):
                stack.append((j, rest - part, part, tops + (m * (n - 1 - j) + part,)))
    return tuple(FerrersBoard(heights) for heights in sorted(found))
