import pytest

import mlrook.cancellation as cancellation
from mlrook.boards import Cell, is_singleton, make_board
from mlrook.cancellation import (
    CancellationClass,
    NonSingletonBoardError,
    canonical_class,
    class_members,
    nonrook_file_placements,
    reintroduction_sum,
    verify_cover,
)
from mlrook.placements import FilePlacement, enumerate_file_placements
from mlrook.rooktheory import weight
from oracles import boards_up_to

# the worked four-member class: 7-column board, m = 2
WIDE_BOARD = make_board((1, 3, 4, 4, 4, 4, 4))
F0 = FilePlacement(WIDE_BOARD, ((2, 3), (3, 2), (4, 1), (5, 4), (6, 1), (7, 3)))


def singleton_boards(max_n, max_h, m):
    for board in boards_up_to(max_n, max_h):
        if is_singleton(board, m):
            yield board


class TestNonRookStream:
    def test_two_column_board(self):
        placements = list(nonrook_file_placements(make_board((1, 2)), 2, 2))
        assert [p.to_string() for p in placements] == ["1:1;2:1", "1:1;2:2"]

    def test_k_zero_and_one_empty(self):
        board = make_board((3, 3, 3))
        for m in (1, 2, 3):
            assert list(nonrook_file_placements(board, m, 0)) == []
            assert list(nonrook_file_placements(board, m, 1)) == []

    def test_complements_mlevel_count(self):
        from mlrook.placements import rook_numbers
        from oracles import file_count_formula

        board = make_board((2, 3, 3))
        for m in (1, 2):
            for k in range(board.n + 1):
                nonrook = sum(1 for _ in nonrook_file_placements(board, m, k))
                assert nonrook == file_count_formula(board, k) - rook_numbers(board, m)[k]


class TestCanonicalLevel:
    def test_tie_breaks_to_lowest(self):
        # both levels of F0 hold three rooks
        assert canonical_class(F0, 2).level == 1

    def test_minimal_count_wins(self):
        board = make_board((6, 6, 6, 6, 6, 6))
        cells = ((1, 1), (2, 1), (3, 2), (4, 2), (5, 5), (6, 6))
        placement = FilePlacement(board, cells)
        # level 1 holds four rooks, level 3 holds two
        assert canonical_class(placement, 2).level == 3

    def test_single_level_board(self):
        placement = FilePlacement(make_board((2, 2)), ((1, 1), (2, 2)))
        assert canonical_class(placement, 2).level == 1

    def test_rejects_mlevel_placement(self):
        placement = FilePlacement(make_board((2, 2)), ((1, 1),))
        with pytest.raises(ValueError):
            canonical_class(placement, 2)


class TestCanonicalClass:
    def test_worked_example(self):
        cls = canonical_class(F0, 2)
        assert cls.level == 1
        assert cls.movable_columns == (4, 6)
        assert Cell(3, 2) in cls.fixed_cells
        assert set(cls.fixed_cells) == {Cell(2, 3), Cell(3, 2), Cell(5, 4), Cell(7, 3)}
        assert cls.size == 4

    def test_two_rook_conflict_single_movable(self):
        placement = FilePlacement(make_board((1, 2)), ((1, 1), (2, 2)))
        cls = canonical_class(placement, 2)
        assert cls.fixed_cells == (Cell(1, 1),)
        assert cls.movable_columns == (2,)
        assert cls.size == 2

    def test_rejects_non_singleton_board(self):
        board = make_board((1, 2, 2, 3))
        placement = FilePlacement(board, ((2, 1), (3, 2)))
        with pytest.raises(NonSingletonBoardError):
            canonical_class(placement, 3)

    def test_partial_movable_column_rejected_at_construction(self):
        # negative control: column 3 of (1,2,2,3) meets level 1 in only
        # 2 of 3 cells, so a class sweeping it must be refused
        board = make_board((1, 2, 2, 3))
        with pytest.raises(NonSingletonBoardError):
            CancellationClass(
                board=board,
                m=3,
                level=1,
                fixed_cells=(Cell(2, 1),),
                movable_columns=(3,),
            )

    def test_malformed_classes_rejected(self):
        board = make_board((4, 4, 4))
        with pytest.raises(ValueError):
            # no movable rooks
            CancellationClass(board, 2, 1, (Cell(1, 1),), ())
        with pytest.raises(ValueError):
            # movable column left of the anchor
            CancellationClass(board, 2, 1, (Cell(2, 1),), (1,))
        with pytest.raises(ValueError):
            # movable column collides with a fixed cell
            CancellationClass(board, 2, 1, (Cell(1, 1), Cell(2, 3)), (2,))
        with pytest.raises(ValueError):
            # two fixed rooks inside the anchor level
            CancellationClass(board, 2, 1, (Cell(1, 1), Cell(2, 2)), (3,))
        with pytest.raises(ValueError):
            # no fixed rook inside the anchor level
            CancellationClass(board, 2, 1, (Cell(1, 3),), (2,))


class TestClassMembers:
    def test_worked_example_members_and_weights(self):
        cls = canonical_class(F0, 2)
        members = class_members(cls)
        assert [p.to_string() for p in members] == [
            "2:3;3:2;4:1;5:4;6:1;7:3",
            "2:3;3:2;4:2;5:4;6:1;7:3",
            "2:3;3:2;4:1;5:4;6:2;7:3",
            "2:3;3:2;4:2;5:4;6:2;7:3",
        ]
        assert [weight(p, 2) for p in members] == [1, 1, 1, -3]
        assert sum(weight(p, 2) for p in members) == 0

    def test_first_member_is_seed_when_seed_sits_low(self):
        members = class_members(canonical_class(F0, 2))
        assert members[0] == F0

    def test_single_movable_m3(self):
        board = make_board((3, 3))
        placement = FilePlacement(board, ((1, 1), (2, 2)))
        cls = canonical_class(placement, 3)
        members = class_members(cls)
        assert len(members) == 3
        assert [p.occupied[2] for p in members] == [1, 2, 3]

    def test_members_share_class(self):
        for m in (2, 3):
            for board in singleton_boards(3, m + 2, m):
                for k in range(board.n + 1):
                    for placement in nonrook_file_placements(board, m, k):
                        cls = canonical_class(placement, m)
                        for member in class_members(cls):
                            assert canonical_class(member, m) == cls

    def test_size_matches_level_rook_count(self):
        for m in (2, 3):
            for board in singleton_boards(3, m + 2, m):
                for k in range(board.n + 1):
                    for placement in nonrook_file_placements(board, m, k):
                        cls = canonical_class(placement, m)
                        rooks_in_level = placement.level_counts(m)[cls.level]
                        members = class_members(cls)
                        assert len(set(members)) == m ** (rooks_in_level - 1)


class TestClassWeightSum:
    def test_zero_on_singleton_family(self):
        for m in (2, 3):
            for board in singleton_boards(3, m + 2, m):
                for k in range(board.n + 1):
                    seen = set()
                    for placement in nonrook_file_placements(board, m, k):
                        cls = canonical_class(placement, m)
                        if cls in seen:
                            continue
                        seen.add(cls)
                        total = sum(weight(p, m) for p in class_members(cls))
                        assert total == 0, (board, m, k)

    def test_two_rook_base_case_pattern(self):
        # m - 1 split placements at +W against one doubled row at (1-m)W
        board = make_board((3, 3))
        placement = FilePlacement(board, ((1, 2), (2, 1)))
        cls = canonical_class(placement, 3)
        weights = sorted(weight(p, 3) for p in class_members(cls))
        assert weights == [-2, 1, 1]
        assert sum(weights) == 0


class TestReintroduction:
    def test_worked_counterexample_right_rook(self):
        # sweeping one of the two right rooks of the bottom level: -2W
        outside = FilePlacement(WIDE_BOARD, ((2, 3), (5, 4), (7, 3)))
        w_outside = weight(outside, 2)
        fhat = F0.without_column(6)
        assert reintroduction_sum(fhat, 6, 1, 2) == -2 * w_outside == 2

    def test_worked_counterexample_leftmost_rook(self):
        # sweeping the leftmost rook instead: -1W + 3W = 2W
        outside = FilePlacement(WIDE_BOARD, ((2, 3), (5, 4), (7, 3)))
        w_outside = weight(outside, 2)
        fhat = F0.without_column(3)
        assert reintroduction_sum(fhat, 3, 1, 2) == 2 * w_outside == -2

    def test_single_resident_rook_cancels(self):
        board = make_board((4, 4))
        fhat = FilePlacement(board, ((1, 1),))
        assert reintroduction_sum(fhat, 2, 1, 2) == 0

    def test_identity_exhaustive_tiny_family(self):
        for m in (2, 3):
            for board in singleton_boards(3, m + 2, m):
                top = (board.heights[-1] if board.n else 0) // m
                for k in range(board.n + 1):
                    for fhat in enumerate_file_placements(board, k):
                        occupied = fhat.occupied
                        for level in range(1, top + 1):
                            t = fhat.level_counts(m).get(level, 0)
                            for col in range(1, board.n + 1):
                                if col in occupied:
                                    continue
                                if board.heights[col - 1] < m * level:
                                    continue
                                actual = reintroduction_sum(fhat, col, level, m)
                                assert actual == weight(fhat, m) * m * (1 - t)

    def test_precondition_violations(self):
        board = make_board((2, 4))
        fhat = FilePlacement(board, ((2, 3),))
        with pytest.raises(ValueError):
            reintroduction_sum(fhat, 2, 1, 2)  # occupied column
        with pytest.raises(ValueError):
            reintroduction_sum(fhat, 1, 2, 2)  # column misses level 2
        with pytest.raises(ValueError):
            reintroduction_sum(fhat, 3, 1, 2)  # no such column


class TestVerifyCover:
    def test_worked_board_full_rooks(self):
        report = verify_cover(WIDE_BOARD, 2, 6)
        assert report.ok
        assert report.well_defined
        assert report.disjoint_cover
        assert report.class_sums_zero
        assert report.total_zero
        assert report.witness is None
        assert report.nonrook_count == sum(cls.size for cls in report.classes)

    def test_two_column_board(self):
        report = verify_cover(make_board((1, 2)), 2, 2)
        assert report.ok
        assert report.nonrook_count == 2
        assert len(report.classes) == 1
        assert report.total_weight == 0

    def test_vacuous_small_k(self):
        board = make_board((4, 4))
        for k in (0, 1):
            report = verify_cover(board, 2, k)
            assert report.ok
            assert report.nonrook_count == 0
            assert report.classes == ()

    def test_rejects_non_singleton(self):
        with pytest.raises(NonSingletonBoardError):
            verify_cover(make_board((1, 2, 2, 3)), 3, 2)

    def test_m1_all_weights_vanish(self):
        report = verify_cover(make_board((2, 2)), 1, 2)
        assert report.ok
        assert report.nonrook_count == 2  # the two same-row placements
        assert all(cls.size == 1 for cls in report.classes)

    def test_json_shapes(self):
        report = verify_cover(make_board((1, 2)), 2, 2)
        summary = report.summary_json_dict()
        assert summary["ok"] is True
        assert summary["board"] == "1,2"
        class_dicts = report.class_json_dicts()
        assert class_dicts == [
            {
                "level": 1,
                "fixed": "1:1",
                "movable_columns": [2],
                "size": 2,
                "weight_sum": 0,
            }
        ]

    def test_wrong_class_key_is_caught(self, monkeypatch):
        real_key = cancellation._class_key

        def bottom_anchor_key(cells, m):
            # wrong rule: the anchor rook is frozen on the bottom row of
            # its level, so placements that differ only in the anchor's
            # row share a class that cannot generate them all
            key = real_key(cells, m)
            if key is None:
                return None
            level, fixed, movable = key
            bottom = m * (level - 1) + 1
            fixed = tuple(
                (c, bottom) if (r + m - 1) // m == level else (c, r) for c, r in fixed
            )
            return level, fixed, movable

        monkeypatch.setattr(cancellation, "_class_key", bottom_anchor_key)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert not report.ok
        assert not report.disjoint_cover
        assert report.witness in ("1:2;2:1", "1:2;2:2")

    def test_wrong_member_sweep_is_caught(self, monkeypatch):
        real_members = cancellation._members

        def members_one_level_up(key, m):
            for cells in real_members(key, m):
                yield tuple((c, r + m) for c, r in cells)

        monkeypatch.setattr(cancellation, "_members", members_one_level_up)
        report = verify_cover(make_board((4, 4)), 2, 2)
        assert not report.well_defined
        assert not report.disjoint_cover
        assert report.witness == "1:3;2:3"

    def test_broken_member_weights_are_caught(self, monkeypatch):
        monkeypatch.setattr(cancellation, "_row_weight", lambda cells, m: 1)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert report.well_defined and report.disjoint_cover and report.total_zero
        assert not report.class_sums_zero
        assert report.class_sums == (2, 2)
        assert report.witness == "1:1;2:1"

    def test_broken_total_is_caught(self, monkeypatch):
        monkeypatch.setattr(cancellation, "weight", lambda placement, m: 1)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert report.class_sums_zero
        assert not report.total_zero
        assert report.total_weight == 4
        assert not report.ok
