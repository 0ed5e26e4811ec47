"""Acceptance suite.

Each test exercises one exit criterion over its full stated family and
prints one ``criterion NN PASS/FAIL`` line (visible with ``pytest -s``).
Every comparison is exact integer equality; there are no tolerances.
"""

import itertools

from mlrook.boards import is_singleton, level_numbers, make_board
from mlrook.cancellation import (
    canonical_class,
    class_members,
    nonrook_file_placements,
    reintroduction_sum,
    verify_cover,
)
from mlrook.ffpoly import FFPoly, expand_roots
from mlrook.placements import (
    FilePlacement,
    enumerate_file_placements,
    enumerate_m_level_rook_placements,
    is_m_level_rook_placement,
    rook_number,
    rook_numbers,
)
from mlrook.rooktheory import (
    br_roots,
    census_level_numbers,
    gjw_roots,
    level_roots,
    m_level_rook_poly,
    verify_factorizations,
    weight,
    weighted_file_numbers,
    weighted_file_poly,
    zone_roots,
)
from oracles import boards_up_to, brute_level_numbers, brute_rook_count

MAIN_FAMILY = tuple(boards_up_to(4, 6))
MAIN_MS = (1, 2, 3, 4)

# the worked four-member cancellation class (7 columns, m = 2)
WIDE_BOARD = make_board((1, 3, 4, 4, 4, 4, 4))
WIDE_SEED = FilePlacement(WIDE_BOARD, ((2, 3), (3, 2), (4, 1), (5, 4), (6, 1), (7, 3)))


def _report(number, description, check):
    try:
        check()
    except Exception:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    print(f"criterion {number:02d} PASS: {description}")


def partition_family(m):
    for board in boards_up_to(4, 2 * m + 2):
        if is_singleton(board, m):
            yield board


def test_criterion_01_full_rooks_on_square():
    def check():
        square = make_board((4, 4, 4, 4))
        assert rook_number(square, 1, 4) == 24
        assert sum(1 for _ in enumerate_m_level_rook_placements(square, 1, 4)) == 24

    _report(1, "24 four-rook placements on the 4x4 square, by enumeration", check)


def test_criterion_02_column_product_expansion():
    def check():
        board = make_board((1, 1, 2, 4))
        expansion = expand_roots(gjw_roots(board))
        assert expansion.coeffs == (0, 0, 1, 2, 1)  # x^4 + 2x^3 + x^2
        assert expansion == m_level_rook_poly(board, 1)

    _report(2, "column product of (1,1,2,4) is x^4+2x^3+x^2 and matches enumeration", check)


def test_criterion_03_weight_of_worked_placement():
    def check():
        board = make_board((2, 2, 4, 4, 4, 4))
        placement = FilePlacement(board, ((1, 2), (3, 4), (4, 2), (5, 4), (6, 4)))
        assert weight(placement, 3) == -20

    _report(3, "weight -20 for the worked six-column placement at m=3", check)


def test_criterion_04_singleton_verdicts():
    def check():
        board = make_board((1, 2, 2, 3))
        assert is_singleton(board, 3) is False
        assert is_singleton(board, 2) is True

    _report(4, "(1,2,2,3) is non-singleton for m=3 and singleton for m=2", check)


def test_criterion_05_file_factorization_family():
    def check():
        for board in MAIN_FAMILY:
            for m in MAIN_MS:
                assert weighted_file_poly(board, m) == expand_roots(
                    br_roots(board, m)
                ), (board, m)
                # the same identity against the counted f_k, not the recurrence
                report = verify_factorizations(board, m, ("file",))
                assert report.file_equals_br_product, (board, m)

    _report(5, "weighted-file polynomial equals the column product on every board", check)


def test_criterion_06_zone_and_level_factorizations():
    def check():
        for board in MAIN_FAMILY:
            for m in MAIN_MS:
                pm = m_level_rook_poly(board, m)
                zr = zone_roots(board, m)
                assert expand_roots(zr) == pm, (board, m)
                # level form needs the board inside its n ambient levels
                if board.n == 0 or board.heights[-1] <= m * board.n:
                    lr = level_roots(board, m)
                    assert expand_roots(lr) == pm, (board, m)
                    assert lr == zr, (board, m)

    _report(6, "zone and level products expand to p_m with equal factor multisets", check)


def test_criterion_07_singleton_agreement():
    def check():
        for board in MAIN_FAMILY:
            for m in MAIN_MS:
                if not is_singleton(board, m):
                    continue
                assert weighted_file_numbers(board, m) == rook_numbers(board, m), (
                    board,
                    m,
                )
                for k in range(board.n + 1):
                    leftover = sum(
                        weight(p, m)
                        for p in enumerate_file_placements(board, k)
                        if not is_m_level_rook_placement(p, m)
                    )
                    assert leftover == 0, (board, m, k)

    _report(7, "on singleton boards f_k = r_k and non-rook weights sum to zero", check)


def test_criterion_08_partition_suite():
    def check():
        for m in (2, 3):
            for board in partition_family(m):
                for k in range(board.n + 1):
                    report = verify_cover(board, m, k)
                    assert report.well_defined, (board, m, k)
                    assert report.disjoint_cover, (board, m, k)
                    assert report.class_sums_zero, (board, m, k)
                    assert report.total_zero, (board, m, k)
                    for cls in report.classes:
                        members = class_members(cls)
                        assert len(set(members)) == m ** len(cls.movable_columns)

    _report(8, "cancellation partition verifies on every singleton board and k", check)


def test_criterion_09_four_member_class():
    def check():
        cls = canonical_class(WIDE_SEED, 2)
        members = class_members(cls)
        assert len(members) == 4
        weights = [weight(p, 2) for p in members]
        assert sum(weights) == 0
        assert sorted(weights) == [-3, 1, 1, 1]

    _report(9, "the worked class has exactly 4 members with zero weight sum", check)


def test_criterion_10_reintroduction_identity():
    def check():
        # the two worked sweeps on the wide board: -2W and -1W + 3W = 2W
        outside = FilePlacement(WIDE_BOARD, ((2, 3), (5, 4), (7, 3)))
        w_out = weight(outside, 2)  # -1
        assert reintroduction_sum(WIDE_SEED.without_column(6), 6, 1, 2) == -2 * w_out
        assert reintroduction_sum(WIDE_SEED.without_column(3), 3, 1, 2) == 2 * w_out

        # the proof step across the partition family: remove the rightmost
        # movable rook of every class seed and sum over its m cells
        for m in (2, 3):
            for board in partition_family(m):
                for k in range(board.n + 1):
                    seen = set()
                    for seed in nonrook_file_placements(board, m, k):
                        cls = canonical_class(seed, m)
                        column = cls.movable_columns[-1]
                        fhat = seed.without_column(column)
                        key = (fhat.cells, column)
                        if key in seen:
                            continue
                        seen.add(key)
                        t = fhat.level_counts(m).get(cls.level, 0)
                        expected = weight(fhat, m) * m * (1 - t)
                        actual = reintroduction_sum(fhat, column, cls.level, m)
                        assert actual == expected, (board, m, k, seed)

    _report(10, "reintroduction sums equal weight * m * (1 - t) everywhere", check)


def test_criterion_11_census_round_trip():
    def check():
        for board in MAIN_FAMILY:
            for m in MAIN_MS:
                if board.n and board.heights[-1] > m * board.n:
                    continue
                assert board in census_level_numbers(level_numbers(board, m), m), (
                    board,
                    m,
                )

        # independent brute force: every 4-column board with heights <= 8
        expected = sorted(
            heights
            for heights in itertools.combinations_with_replacement(range(9), 4)
            if brute_level_numbers(make_board(heights), 2) == (0, 0, 2, 6)
        )
        assert expected == [(0, 2, 2, 4), (0, 2, 3, 3), (1, 1, 2, 4), (1, 1, 3, 3)]
        assert [b.heights for b in census_level_numbers((0, 0, 2, 6), 2)] == expected

    _report(11, "census contains every source board and matches brute force", check)


def test_criterion_12_m1_collapse():
    def check():
        for board in MAIN_FAMILY:
            classical = tuple(
                brute_rook_count(board, 1, k) for k in range(board.n + 1)
            )
            classical_poly = FFPoly.mfalling(tuple(reversed(classical)), 1).to_power()
            assert m_level_rook_poly(board, 1) == classical_poly, board
            g = gjw_roots(board)
            assert br_roots(board, 1) == g, board
            assert zone_roots(board, 1) == g, board
            if board.n == 0 or board.heights[-1] <= board.n:
                assert level_roots(board, 1) == g, board

    _report(12, "at m=1 everything collapses to classical rook theory", check)
