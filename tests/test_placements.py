import copy
import dataclasses
import inspect
import pickle
import re
import tracemalloc
from itertools import islice

import pytest

import mlrook.boards as boards
import mlrook.placements as placements
from mlrook.boards import FerrersBoard, make_board
from mlrook.placements import (
    FilePlacement,
    _column_recurrence,
    InvalidPlacementError,
    enumerate_file_placements,
    enumerate_m_level_rook_placements,
    is_m_level_rook_placement,
    rook_number,
    rook_numbers,
)
from oracles import (
    boards_up_to,
    brute_file_cells,
    brute_rook_count,
    file_count_formula,
    is_mlevel_cells,
)

SQ4 = make_board((4, 4, 4, 4))

# placements lifted from small worked figures
FIG_ROOK_SQ4 = ((1, 4), (2, 2), (3, 1), (4, 3))
FIG_FILE = ((1, 2), (3, 4), (4, 2), (5, 4), (6, 4))


class TestFilePlacementValue:
    def test_duplicate_column_rejected(self):
        with pytest.raises(InvalidPlacementError):
            FilePlacement(SQ4, ((1, 1), (1, 2)))

    def test_off_board_rejected(self):
        with pytest.raises(InvalidPlacementError, match="2:2"):
            FilePlacement(make_board((1, 1)), ((2, 2),))

    @pytest.mark.parametrize("cell", [(0, 1), (-1, 1), (3, 1), (1, 0), (1, 2), (2, 4)])
    def test_cell_just_off_the_board_rejected(self, cell):
        with pytest.raises(InvalidPlacementError, match=f"cell {cell[0]}:{cell[1]} is not on"):
            FilePlacement(make_board((1, 3)), (cell,))

    def test_construction_checks_each_coordinate_once(self, monkeypatch):
        # the cell loop's own type test is the only check on each
        # coordinate; none runs again through boards._check_int
        calls = []
        monkeypatch.setattr(boards, "_check_int", lambda name, value: calls.append(value))
        p = FilePlacement(SQ4, FIG_ROOK_SQ4)
        assert p.cells == tuple(sorted(FIG_ROOK_SQ4))
        assert calls == []

    def test_cells_sorted_by_column(self):
        p = FilePlacement(SQ4, ((3, 1), (1, 2)))
        assert p.cells == ((1, 2), (3, 1))

    def test_equality_ignores_board(self):
        a = FilePlacement(make_board((2, 2)), ((1, 1),))
        b = FilePlacement(make_board((1, 1)), ((1, 1),))
        assert a == b
        assert hash(a) == hash(b)
        # a placement is not its cells tuple
        assert a != a.cells
        assert FilePlacement.__eq__(a, a.cells) is NotImplemented

    def test_occupied_and_counts(self):
        p = FilePlacement(SQ4, FIG_ROOK_SQ4)
        assert dict(p.cells) == {1: 4, 2: 2, 3: 1, 4: 3}
        assert p.level_counts(2) == {2: 2, 1: 2}

    def test_non_integer_cells_rejected(self):
        board = make_board((1, 2))
        for cells in (((2, 2.0),), ((True, 1),), ((1, 1), (2, False)), (("a", 1), (2, 1))):
            with pytest.raises(InvalidPlacementError, match="not a pair of integers"):
                FilePlacement(board, cells)

    @pytest.mark.parametrize("cell", [5, (1, 2, 3), (1,), None])
    def test_cell_that_is_not_a_pair_rejected(self, cell):
        with pytest.raises(InvalidPlacementError, match=rf"cell {re.escape(repr(cell))} is not"):
            FilePlacement(make_board((2, 4, 4)), [(1, 1), cell])

    def test_with_and_without_rook(self):
        p = FilePlacement(make_board((1, 2)), ((1, 1),))
        q = FilePlacement(make_board((1, 2)), ((1, 1), (2, 2)))
        assert len(q.cells) == 2
        assert q.without_column(2) == p
        with pytest.raises(ValueError):
            p.without_column(2)

    @pytest.mark.parametrize("column", [True, 1.0, "1"])
    def test_without_non_integer_column_rejected(self, column):
        # True == 1 == 1.0, so a loose check would drop column 1's rook
        p = FilePlacement(make_board((1, 2)), ((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="not an integer"):
            p.without_column(column)

    def test_string_round_trip(self):
        board = make_board((2, 2, 4, 4, 4, 4))
        p = FilePlacement(board, FIG_FILE)
        assert p.to_string() == "1:2;3:4;4:2;5:4;6:4"
        assert FilePlacement(board, ()).to_string() == ""

    @pytest.mark.parametrize("cells", [((1, 1),), ()])
    def test_board_must_be_a_ferrers_board(self, cells):
        # with no cells nothing would read the board until much later
        with pytest.raises(ValueError, match="not a FerrersBoard"):
            FilePlacement((1, 2, 3), cells)

    def test_slotted_frozen_record(self):
        p = FilePlacement(make_board((1, 2)), ((2, 2), (1, 1)))
        assert not hasattr(p, "__dict__")
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p and q is not p
            assert q.board == p.board and q.cells == ((1, 1), (2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.cells = ()
        assert repr(p) == (
            "FilePlacement(board=FerrersBoard(heights=(1, 2)), cells=((1, 1), (2, 2)))"
        )
        assert dataclasses.replace(p, cells=((2, 1),)).cells == ((2, 1),)
        with pytest.raises(InvalidPlacementError, match="1:2"):
            dataclasses.replace(p, cells=((1, 2),))


class TestEnumerateFile:
    def test_counts_small(self):
        board = make_board((1, 2))
        assert len(list(enumerate_file_placements(board, 2))) == 2
        assert len(list(enumerate_file_placements(board, 1))) == 3

    def test_k_zero_single_empty(self):
        for board in (make_board(()), make_board((0, 3)), SQ4):
            placements = list(enumerate_file_placements(board, 0))
            assert placements == [FilePlacement(board, ())]

    def test_k_beyond_columns_empty_stream(self):
        assert list(enumerate_file_placements(make_board((1, 2)), 3)) == []

    def test_huge_k_allocates_nothing(self):
        # a walk sized by k before checking it against n needs 2**65 bytes
        board = make_board((1, 2))
        assert list(enumerate_file_placements(board, 2**62)) == []
        assert list(enumerate_m_level_rook_placements(board, 2, 2**62)) == []

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_file_placements(SQ4, -1))

    def test_canonical_order(self):
        board = make_board((1, 2))
        assert [p.to_string() for p in enumerate_file_placements(board, 1)] == [
            "1:1",
            "2:1",
            "2:2",
        ]
        assert [p.to_string() for p in enumerate_file_placements(board, 2)] == [
            "1:1;2:1",
            "1:1;2:2",
        ]

    def test_lexicographic_and_distinct(self):
        board = make_board((2, 3, 3))
        for k in range(4):
            placements = list(enumerate_file_placements(board, k))
            cells = [p.cells for p in placements]
            assert cells == sorted(cells)
            assert len(set(cells)) == len(cells)

    def test_count_matches_symmetric_function(self):
        for board in boards_up_to(5, 6):
            for k in range(board.n + 1):
                count = sum(1 for _ in enumerate_file_placements(board, k))
                assert count == file_count_formula(board, k), (board, k)


class TestEnumerateMLevel:
    def test_sq4_full_placements(self):
        assert len(list(enumerate_m_level_rook_placements(SQ4, 1, 4))) == 24

    def test_shared_level_blocks(self):
        assert list(enumerate_m_level_rook_placements(make_board((1, 2)), 2, 2)) == []

    def test_k_zero(self):
        assert len(list(enumerate_m_level_rook_placements(SQ4, 3, 0))) == 1

    def test_equals_filtered_file_placements(self):
        for board in boards_up_to(3, 4):
            for m in (1, 2, 3):
                for k in range(board.n + 1):
                    filtered = {
                        p
                        for p in enumerate_file_placements(board, k)
                        if is_m_level_rook_placement(p, m)
                    }
                    direct = set(enumerate_m_level_rook_placements(board, m, k))
                    assert direct == filtered

    def test_yields_only_valid(self):
        for p in enumerate_m_level_rook_placements(make_board((2, 3, 5)), 2, 2):
            assert is_m_level_rook_placement(p, 2)

    def test_used_level_skipped_in_one_step(self):
        # on (h, h, h) at m = h every row is in level 1, so r_3 = 0; the
        # second rook must skip column 2's used level at once, not row by
        # row, or the walk takes h * h steps.  Each row step reads
        # ``row + m``, which this int counts.
        class CountedM(int):
            steps = 0

            def __radd__(self, other):
                CountedM.steps += 1
                return int(other) + int(self)

        h = 300
        walk = enumerate_m_level_rook_placements(make_board((h, h, h)), CountedM(h), 3)
        assert next(walk, None) is None
        assert 0 < CountedM.steps < 10 * h

    def test_last_rook_skips_used_level_in_one_step(self, monkeypatch):
        # on (h, h) at m = h both columns are one level, so r_2 = 0; each of
        # column 1's h rows is a prefix, and the last rook's sweep of column 2
        # must skip the used level at once, not test it cell by cell, or the
        # walk makes h * h level tests.  Each prefix's ``used`` is handed over
        # as a copy that counts them.
        checks = 0

        class CountedSet(set):
            def __contains__(self, level):
                nonlocal checks
                checks += 1
                return super().__contains__(level)

        prefixes = placements._prefixes

        def counted(heights, k, m=None):
            for prefix, first, used in prefixes(heights, k, m):
                yield prefix, first, CountedSet(used)

        monkeypatch.setattr(placements, "_prefixes", counted)
        h = 2_000
        walk = enumerate_m_level_rook_placements(make_board((h, h)), h, 2)
        assert next(walk, None) is None
        assert 0 < checks <= 3 * h, checks


def assert_records(board, walked, expected):
    # each record, stored without re-validation, is the placement the
    # validating constructor builds from the oracle's cells, on the very
    # board object given
    assert [p.cells for p in walked] == expected, board
    for placement, cells in zip(walked, expected):
        built = FilePlacement(board, cells)
        assert placement == built and hash(placement) == hash(built), placement
        assert placement.board is board


class TestWalkSequence:
    # the exact stream, order and multiplicity included, against the
    # oracle's placements sorted lexicographically
    def test_file_walk_is_sorted_oracle(self):
        for board in boards_up_to(4, 6):
            for k in range(board.n + 2):
                walked = list(enumerate_file_placements(board, k))
                assert_records(board, walked, sorted(brute_file_cells(board, k)))

    def test_mlevel_walk_is_filtered_sorted_oracle(self):
        for board in boards_up_to(4, 6):
            for k in range(board.n + 2):
                expected = sorted(brute_file_cells(board, k))
                for m in (1, 2, 3):
                    walked = list(enumerate_m_level_rook_placements(board, m, k))
                    assert_records(board, walked, [c for c in expected if is_mlevel_cells(c, m)])

    def test_walked_counts_are_the_formula_counts(self):
        # the counts ``mlrook enumerate`` reports without walking: e_k from
        # the column recurrence at t = 0, r_k from the column sweep, at m = 1
        # for the rook kind
        for board in boards_up_to(4, 6):
            e = _column_recurrence(board.heights, 0)
            for m in (1, 2, 3):
                r = rook_numbers(board, m)
                for k in range(board.n + 1):
                    if m == 1:
                        assert sum(1 for _ in enumerate_file_placements(board, k)) == e[k]
                    walked = enumerate_m_level_rook_placements(board, m, k)
                    assert sum(1 for _ in walked) == r[k], (board, m, k)

    def test_streams_check_k_when_iterated(self):
        # generator functions: a bad k is reported by the first next(), not
        # by the call that makes the stream
        assert inspect.isgeneratorfunction(enumerate_file_placements)
        assert inspect.isgeneratorfunction(enumerate_m_level_rook_placements)
        for board in boards_up_to(4, 6):
            for k in (-1, True, 1.5):
                for stream in (
                    enumerate_file_placements(board, k),
                    enumerate_m_level_rook_placements(board, 2, k),
                ):
                    with pytest.raises(ValueError, match="rook count k"):
                        next(stream)

    @pytest.mark.parametrize(
        "stream",
        [
            lambda board: enumerate_file_placements(board, 1),
            lambda board: enumerate_file_placements(board, 2),
            lambda board: enumerate_m_level_rook_placements(board, 3, 2),
        ],
    )
    def test_tall_columns_are_swept_lazily(self, stream):
        # a sweep that built a column's cells ahead of yielding them would
        # need gigabytes here
        board = make_board((10**9, 10**9))
        tracemalloc.start()
        try:
            first = next(stream(board))
            three = list(islice(stream(board), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == three[0] and len(three) == 3
        assert peak < 64 * 1024, peak


    def test_single_rook_sweep_keeps_no_memo(self):
        # k = 1 has one prefix, so memoised cells would never be read again
        board = make_board((10_000, 10_000))
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumerate_file_placements(board, 1)) == 20_000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_a_level_every_prefix_holds_is_never_built(self):
        # r_2 = 0: both of column 1's rows hold column 2's one level, so the
        # sweep skips it without building its 10**12 cells
        board = make_board((2, 10**12))
        assert next(enumerate_m_level_rook_placements(board, 10**12, 2), None) is None

    def test_dead_level_memo_stays_empty(self):
        # 10**5 prefixes in column 1, all in the one level of column 2, which
        # the memo would hold as 10**5 one-tuples had any sweep built it
        board = make_board((10**5, 10**5))
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumerate_m_level_rook_placements(board, 10**5, 2)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, peak


class TestNoDepthLimit:
    # the walker keeps one cell per placed rook instead of recursing per
    # column, so the board width is not bounded by the recursion limit
    def test_file_placements_on_1200_columns(self):
        board = make_board((1,) * 1200)
        assert sum(1 for _ in enumerate_file_placements(board, 1)) == 1200

    def test_full_staircase_has_one_rook_placement(self):
        board = make_board(range(1, 1201))
        placements = list(enumerate_m_level_rook_placements(board, 1, 1200))
        assert len(placements) == 1
        assert placements[0].cells == tuple((i, i) for i in range(1, 1201))


class TestPredicates:
    def test_figure_rook_placement(self):
        assert is_m_level_rook_placement(FilePlacement(SQ4, FIG_ROOK_SQ4), 1)

    def test_figure_file_placement_fails_m3(self):
        board = make_board((2, 2, 4, 4, 4, 4))
        p = FilePlacement(board, FIG_FILE)
        assert not is_m_level_rook_placement(p, 3)

    def test_empty_placement_always_passes(self):
        p = FilePlacement(SQ4, ())
        for m in (1, 2, 5):
            assert is_m_level_rook_placement(p, m)

    def test_classify_nesting(self):
        board = make_board((4, 4))
        clean = FilePlacement(board, ((1, 1), (2, 3)))
        # every m-level placement is a rook placement
        assert is_m_level_rook_placement(clean, 1)


class TestRookNumbers:
    def test_sq4(self):
        assert rook_number(SQ4, 1, 4) == 24

    def test_k_zero_is_one(self):
        for board in (make_board(()), make_board((1, 2)), SQ4):
            for m in (1, 2, 3):
                assert rook_number(board, m, 0) == 1

    def test_shared_level(self):
        assert rook_number(make_board((1, 2)), 2, 2) == 0

    def test_k_beyond_columns(self):
        assert rook_number(make_board((1, 2)), 1, 5) == 0

    def test_bad_m_rejected_beyond_columns(self):
        board = make_board((1, 2))
        for m in (0, True):
            with pytest.raises(ValueError, match="block size m"):
                rook_number(board, m, 5)

    def test_bool_k_rejected(self):
        board = make_board((1, 2))
        with pytest.raises(ValueError):
            rook_number(board, 1, True)
        with pytest.raises(ValueError):
            list(enumerate_file_placements(board, True))

    def test_wide_board_has_no_depth_limit(self):
        # 1,200 columns of height 1: every rook sits in the same level
        assert rook_numbers(make_board((1,) * 1200), 2) == (1, 1200) + (0,) * 1199

    def test_few_tall_columns(self):
        # 1,000 levels but two columns: the work must not grow with the levels
        assert rook_numbers(make_board((1000, 1000)), 1) == (1, 2000, 999000)

    def test_vector_matches_enumeration_and_oracle(self):
        for board in boards_up_to(4, 5):
            for m in (1, 2, 3):
                vector = rook_numbers(board, m)
                assert vector[0] == 1
                for k in range(board.n + 1):
                    count = sum(1 for _ in enumerate_m_level_rook_placements(board, m, k))
                    assert vector[k] == count
                    assert vector[k] == brute_rook_count(board, m, k)

    def test_zero_beyond_spanned_levels(self):
        # (2,2): both columns inside level 1 when m = 2
        assert rook_numbers(make_board((2, 2)), 2) == (1, 4, 0)
        # nonempty columns bound: (0,0,3) has one usable column
        assert rook_numbers(make_board((0, 0, 3)), 1)[2] == 0

    def test_vanishing_bounds_family(self):
        for board in boards_up_to(4, 5):
            for m in (1, 2, 3):
                vector = rook_numbers(board, m)
                nonempty = sum(1 for h in board.heights if h)
                # levels the board meets: the level of its top row
                spanned = (board.heights[-1] + m - 1) // m if board.n else 0
                for k in range(board.n + 1):
                    if k > nonempty or k > spanned:
                        assert vector[k] == 0, (board, m, k)
