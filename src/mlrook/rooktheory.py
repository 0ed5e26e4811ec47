"""Rook polynomials, weighted file numbers, and their product forms.

For an n-column Ferrers board and block size m the central object is

    p_m(B, x) = sum_k r_k * ff(x, n-k, m),

the generating polynomial of the m-level rook numbers over the
m-falling basis.  Three root tuples give product forms for it, each
the shift ``s_i - m*(i-1)`` of a sequence s, sorted (``_shifted``):

- column form, s the heights: expands to p_m exactly on singleton
  boards (for m = 1 this is the classical column factorization, valid
  on every Ferrers board);
- zone form, s each column's m-floor plus its zone's remainder on the
  zone's last column, with the zones from ``boards._zone_runs``;
- level form, s the top-down level numbers.

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
Only those checks, ``m_level_rook_poly`` and ``equiv``'s printed rook
vectors read the column sweep; equivalence compares sorted zone roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import sub
from typing import Collection, Iterable, Mapping, Sequence

from .boards import (
    FerrersBoard,
    _check_int,
    _check_m,
    _fits_levels,
    _zone_runs,
    is_singleton,
    level_numbers,
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


def _shifted(values: Sequence[int], m: int) -> tuple[int, ...]:
    # the root constants s_i - m*(i-1) of the sequence s, sorted
    return tuple(sorted(map(sub, values, range(0, m * len(values), m))))


def br_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Column root constants ``b_i - m*(i-1)``.

    Defined for every Ferrers board; the expansion equals p_m only on
    singleton boards, but always equals the weighted-file polynomial.
    """
    _check_m(m)
    return _shifted(board.heights, m)


def zone_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Zone root constants: per column the m-floor shifted by ``-(i-1)*m``,
    with the zone remainder added on the last column of each zone.

    Reads the zones from ``boards._zone_runs``' one pass, with no ``Zone``
    record, into one floor per column for ``_shifted``."""
    _check_m(m)
    floors: list[int] = []
    for start, end, floor, rest in _zone_runs(board.heights, m):
        floors += [floor] * (end - start)
        floors.append(floor + rest)
    return _shifted(floors, m)


def level_roots(board: FerrersBoard, m: int) -> tuple[int, ...]:
    """Level root constants ``l_j - m*(j-1)`` from the top-down level numbers.

    Requires the board to fit its n ambient levels (``b_n <= m*n``).
    """
    return _shifted(level_numbers(board, m), m)


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

    forms = {**_FORMS, "rows": lambda board, m: _basis_sum_poly(_row_sweep(board.heights, m), m)}
    form = cache(lambda name: forms[name](board, m))  # each built when a check first needs it

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
    """Same column count and identical m-level rook numbers, in O(n log n).

    The ff(x, n-k, m) form a basis, so at equal n equal rook numbers mean
    equal p_m = prod(x + c) over the zone roots c; and two monic products
    of linear factors are equal exactly when their root multisets are.
    Unequal cell counts, r_1, answer first, with no root built."""
    _check_m(m)
    return (b1.n == b2.n and b1.total_cells == b2.total_cells
            and zone_roots(b1, m) == zone_roots(b2, m))


def census_level_numbers(
    levels: Iterable[int], m: int
) -> tuple[FerrersBoard, ...]:
    """All Ferrers boards whose top-down level numbers equal ``levels``.

    Builds them top level first: the columns already placed give m cells
    each, and new columns topping out in the level give the rest, 1..m
    cells each, added right to left in non-increasing parts so heights
    stay sorted.  A column reaching a level fills the levels below, so
    only splits that lead to a board are tried; the answer is complete.
    Boards come back in lexicographic height order; the empty tuple is
    a valid (empty) answer.
    """
    _check_m(m)
    levels = tuple(levels)
    for l in levels:
        _check_int("level number", l, 0)
    n = len(levels)
    reach = [n] * n  # reach[j]: most columns reaching level n-j; each fills the levels below
    for j in range(n - 2, -1, -1):
        reach[j] = min(reach[j + 1], levels[j + 1] // m)
    if any(count > m * most for count, most in zip(levels, reach)):
        return ()
    found = []
    # (j, rest, cap, tops): level n-j needs rest more cells from new columns
    # of at most cap cells each; tops holds the placed heights right to left
    stack = [(-1, 0, m, ())]
    while stack:
        j, rest, cap, tops = stack.pop()
        if rest:  # rest <= cap * free: the free columns can hold it
            free = reach[j] - len(tops)
            for part in range(min(cap, rest), -(-rest // free) - 1, -1):
                stack.append((j, rest - part, part, tops + (m * (n - 1 - j) + part,)))
        elif j + 1 == n:
            found.append((0,) * (n - len(tops)) + tops[::-1])
        else:  # level n-j is complete: open the one below it
            stack.append((j + 1, levels[j + 1] - m * len(tops), m, tops))
    return tuple(FerrersBoard(heights) for heights in sorted(found))
