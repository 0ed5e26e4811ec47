import pytest

from mlrook.boards import (
    AmbientSizeError,
    FerrersBoard,
    InvalidBoardError,
    Zone,
    is_singleton,
    level_numbers,
    make_board,
    parse_board,
    zones,
)
from mlrook.placements import FilePlacement
from oracles import boards_up_to, brute_level_numbers, brute_singleton_by_levels


class TestMakeBoard:
    def test_four_columns(self):
        assert make_board((1, 1, 2, 4)).n == 4

    def test_empty(self):
        board = make_board(())
        assert board.n == 0
        assert board.total_cells == 0

    def test_decreasing_rejected_naming_index(self):
        with pytest.raises(InvalidBoardError, match="column 2"):
            make_board((2, 1))

    def test_negative_rejected_naming_index(self):
        with pytest.raises(InvalidBoardError, match="column 1"):
            make_board((-3, 1))

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidBoardError):
            make_board((1, "2"))

    def test_bool_height_rejected(self):
        with pytest.raises(InvalidBoardError, match="column 1"):
            make_board((True, 2))

    def test_bool_m_rejected(self):
        board = make_board((1, 2))
        for fn in (zones, level_numbers, is_singleton):
            with pytest.raises(ValueError, match="block size"):
                fn(board, True)

    @pytest.mark.parametrize("column", [True, False, 1.5, 1.0, "1"])
    def test_non_integer_column_rejected(self, column):
        # True == 1 and 1.0 == 1, so a loose check reads them as column 1
        board = make_board((1, 3))
        with pytest.raises(ValueError, match="not an integer"):
            board.column_height(column)


class TestBoardString:
    def test_round_trip(self):
        for text in ("", "0", "1,1,2,4", "0,0,3"):
            assert str(parse_board(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_board(" 1, 2 ").heights == (1, 2)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidBoardError):
            parse_board("1,x,3")


class TestMFloor:
    # a one-column board is one zone whose floor is the column's m-floor
    @pytest.mark.parametrize("v,m,expected", [(7, 3, 6), (6, 3, 6), (0, 5, 0), (5, 1, 5)])
    def test_values(self, v, m, expected):
        assert zones(make_board((v,)), m)[0].floor == expected

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            zones(make_board((4,)), 0)


class TestLevelOfRow:
    # a single rook on ``row`` is counted in the level holding that row
    @pytest.mark.parametrize("row,m,expected", [(1, 2, 1), (2, 2, 1), (3, 2, 2), (6, 3, 2), (7, 3, 3)])
    def test_values(self, row, m, expected):
        placement = FilePlacement(make_board((row,)), ((1, row),))
        assert placement.level_counts(m) == {expected: 1}


class TestZones:
    def test_example_board(self):
        assert zones(make_board((1, 1, 2, 4)), 2) == (
            Zone(start=1, end=2, floor=0, remainder=2),
            Zone(start=3, end=3, floor=2, remainder=0),
            Zone(start=4, end=4, floor=4, remainder=0),
        )

    def test_empty_board(self):
        assert zones(make_board(()), 3) == ()

    def test_constant_floors_single_zone(self):
        assert zones(make_board((3, 3, 3)), 3) == (
            Zone(start=1, end=3, floor=3, remainder=0),
        )

    def test_partition_of_columns(self):
        for board in boards_up_to(5, 7):
            for m in (1, 2, 3):
                zs = zones(board, m)
                expected_start = 1
                for z in zs:
                    assert z.start == expected_start
                    assert z.start <= z.end
                    expected_start = z.end + 1
                assert expected_start == board.n + 1
                total_remainder = sum(z.remainder for z in zs)
                assert total_remainder == sum(h % m for h in board.heights)


class TestLevelNumbers:
    def test_example_small(self):
        assert level_numbers(make_board((1, 1, 2, 4)), 2) == (0, 0, 2, 6)

    def test_example_wide(self):
        assert level_numbers(make_board((1, 3, 4, 4, 4, 4, 4)), 2) == (0, 0, 0, 0, 0, 11, 13)
        # 5,000 columns 0, 2, ..., 9998: level j from the top holds 2(j-1) cells
        assert level_numbers(make_board(range(0, 10_000, 2)), 2) == tuple(range(0, 10_000, 2))

    def test_empty(self):
        assert level_numbers(make_board(()), 5) == ()

    def test_too_tall_rejected(self):
        with pytest.raises(AmbientSizeError):
            level_numbers(make_board((7,)), 2)

    def test_cell_conservation_and_oracle(self):
        for board in boards_up_to(4, 8):
            for m in (1, 2, 3):
                if board.n and board.heights[-1] > m * board.n:
                    continue
                ls = level_numbers(board, m)
                assert sum(ls) == board.total_cells
                assert ls == brute_level_numbers(board, m)


class TestIsSingleton:
    def test_figure_board_m3(self):
        assert is_singleton(make_board((1, 2, 2, 3)), 3) is False

    def test_figure_board_m2(self):
        assert is_singleton(make_board((1, 2, 2, 3)), 2) is True

    def test_m1_always_singleton(self):
        for board in boards_up_to(4, 6):
            assert is_singleton(board, 1) is True

    def test_last_column_remainder_is_allowed(self):
        # the trailing column may end mid-level without spoiling the board
        assert is_singleton(make_board((2, 5)), 3) is True

    def test_matches_partial_intersection_rule(self):
        for board in boards_up_to(5, 10):
            for m in (2, 3, 4):
                assert is_singleton(board, m) == brute_singleton_by_levels(board, m), (
                    board,
                    m,
                )


class TestFerrersBoardValue:
    def test_hashable_and_equal(self):
        assert make_board((1, 2)) == FerrersBoard((1, 2))
        assert hash(make_board((1, 2))) == hash(FerrersBoard((1, 2)))

    def test_heights_normalized_to_tuple(self):
        assert make_board([1, 2]).heights == (1, 2)
