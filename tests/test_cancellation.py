import itertools
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mlrook.cancellation as cancellation
from mlrook.boards import FerrersBoard, is_singleton, make_board
from mlrook.cancellation import (
    CancellationClass,
    NonSingletonBoardError,
    canonical_class,
    class_members,
    nonrook_file_placements,
    reintroduction_sum,
    verify_cover,
)
from mlrook.placements import FilePlacement, _walk, enumerate_file_placements
from mlrook.rooktheory import weight
from oracles import (
    boards_up_to,
    brute_class_key,
    brute_cover,
    brute_file_cells,
    file_count_formula,
    is_mlevel_cells,
)

# the worked four-member class: 7-column board, m = 2
WIDE_BOARD = make_board((1, 3, 4, 4, 4, 4, 4))
F0 = FilePlacement(WIDE_BOARD, ((2, 3), (3, 2), (4, 1), (5, 4), (6, 1), (7, 3)))


def singleton_boards(max_n, max_h, m, min_columns=0):
    for board in boards_up_to(max_n, max_h, min_columns):
        if is_singleton(board, m):
            yield board


BAD_KS = [True, -1, 1.5]


class TestNonRookStream:
    @pytest.mark.parametrize("k", BAD_KS)
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError, match="rook count k"):
            list(nonrook_file_placements(make_board((2, 2)), 2, k))

    def test_two_column_board(self):
        placements = list(nonrook_file_placements(make_board((1, 2)), 2, 2))
        assert [p.to_string() for p in placements] == ["1:1;2:1", "1:1;2:2"]

    def test_huge_k_empty(self):
        board = make_board((2, 2))
        assert list(nonrook_file_placements(board, 2, 2**62)) == []
        report = verify_cover(board, 2, 2**62)
        assert report.ok and report.nonrook_count == 0 and report.classes == ()

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_class_key_matches_the_rule(self, m):
        # every file placement of the small family, so every shape the key
        # tells apart: no conflict, one doubled level, three rooks in one
        # level, and two doubled levels tied
        shapes = set()
        for board in boards_up_to(4, 6):
            for k in range(board.n + 1):
                for cells in brute_file_cells(board, k):
                    key = cancellation._class_key(cells, m)
                    assert key == brute_class_key(cells, m), (board, cells)
                    crowded = Counter((row + m - 1) // m for _, row in cells).most_common(2)
                    shapes.add(tuple(count for _, count in crowded))
        assert {(1, 1), (2, 1), (3, 1), (2, 2)} <= shapes

    def test_prefix_keys_match_the_rule(self):
        # the key verify_cover tallies, read off the prefix of k - 1 rooks
        # of each walked placement, on every 5-column board of heights 1..4
        # at m = 2: from 5 columns on two conflicted levels can hold
        # different counts, so the last rook's level, holding more rooks
        # than another conflicted level or fewer, both loses and wins the
        # canonical level
        m = 2
        outcomes = set()
        for board in boards_up_to(5, 4, min_columns=5):
            if not board.heights[0]:
                continue
            for k in range(2, 6):
                for cells in _walk(board.heights, k):
                    key = cancellation._class_key(cells, m)
                    assert key == brute_class_key(cells, m), (board, cells)
                    if k < 5:  # fewer rooks cannot fill two levels unequally
                        continue
                    levels = Counter((row + m - 1) // m for _, row in cells)
                    last = (cells[-1][1] + m - 1) // m
                    if levels[last] > 1 and any(
                        level != last and 1 < count != levels[last]
                        for level, count in levels.items()
                    ):
                        outcomes.add(key[0] == last)
        assert outcomes == {True, False}

    def test_public_key_reads_the_keyer(self, monkeypatch):
        # canonical_class and nonrook_file_placements key a placement by the
        # rule the tally reads, so a keyer that reads every placement of the
        # classes fixing cell 1:1 as an m-level rook placement reaches them
        real_keyer = cancellation._keyer

        def keyer_dropping_classes(prefix, m):
            return ({}, None) if (1, 1) in prefix else real_keyer(prefix, m)

        monkeypatch.setattr(cancellation, "_keyer", keyer_dropping_classes)
        board = make_board((2, 2))
        with pytest.raises(ValueError, match="m-level rook placement"):
            canonical_class(FilePlacement(board, ((1, 1), (2, 1))), 2)
        walked = [p.to_string() for p in nonrook_file_placements(board, 2, 2)]
        assert "1:1;2:1" not in walked


class TestCanonicalClass:
    def test_worked_example(self):
        cls = canonical_class(F0, 2)
        assert cls.level == 1
        assert cls.movable_columns == (4, 6)
        assert (3, 2) in cls.fixed_cells
        assert set(cls.fixed_cells) == {(2, 3), (3, 2), (5, 4), (7, 3)}
        assert cls.size == 4

    def test_two_rook_conflict_single_movable(self):
        placement = FilePlacement(make_board((1, 2)), ((1, 1), (2, 2)))
        cls = canonical_class(placement, 2)
        assert cls.fixed_cells == ((1, 1),)
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
                fixed_cells=((2, 1),),
                movable_columns=(3,),
            )

    def test_malformed_classes_rejected(self):
        board = make_board((4, 4, 4))
        with pytest.raises(ValueError):
            # no movable rooks
            CancellationClass(board, 2, 1, ((1, 1),), ())
        with pytest.raises(ValueError):
            # movable column left of the anchor
            CancellationClass(board, 2, 1, ((2, 1),), (1,))
        with pytest.raises(ValueError):
            # movable column collides with a fixed cell
            CancellationClass(board, 2, 1, ((1, 1), (2, 3)), (2,))
        with pytest.raises(ValueError):
            # two fixed rooks inside the anchor level
            CancellationClass(board, 2, 1, ((1, 1), (2, 2)), (3,))
        with pytest.raises(ValueError):
            # no fixed rook inside the anchor level
            CancellationClass(board, 2, 1, ((1, 3),), (2,))

    def test_board_must_be_a_ferrers_board(self):
        with pytest.raises(ValueError, match="not a FerrersBoard"):
            CancellationClass((4, 4, 4), 2, 1, ((1, 1),), (2,))

    def test_bool_level_rejected(self):
        board = make_board((4, 4, 4))
        with pytest.raises(ValueError, match="level True is not an integer"):
            CancellationClass(board, 2, True, ((1, 1),), (2,))

    @pytest.mark.parametrize(
        "fixed, movable",
        [
            (((True, 1),), (2,)),
            (((1, True),), (2,)),
            (((1, 1.0),), (2,)),
            (((1, 1),), (True,)),
            (((1, 1),), (2.0,)),
            (((1, 1),), (2, "3")),
        ],
    )
    def test_non_integer_cell_or_column_rejected(self, fixed, movable):
        board = make_board((4, 4, 4))
        with pytest.raises(ValueError, match="not a pair of integers"):
            CancellationClass(board, 2, 1, fixed, movable)

    def test_constructor_memory_does_not_grow_with_m(self):
        # the first member is built in closed form, not read off the member
        # sweep, whose rows of the level would take tens of MB at this m
        board = make_board((10**6,) * 3)
        tracemalloc.start()
        try:
            cls = CancellationClass(board, 10**6, 1, ((1, 1),), (2,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cls.size == 10**6
        assert peak < 64 * 1024, peak


def class_triples(board, m):
    """Every (level, fixed, movable) with at least one fixed cell on the
    board, no two in a column, one or more of the other columns movable,
    and a level the board reaches."""
    top = -(-max(board.heights, default=0) // m)
    for k in range(1, board.n + 1):
        for fixed in brute_file_cells(board, k):
            used = {col for col, _ in fixed}
            free = [col for col in range(1, board.n + 1) if col not in used]
            for size in range(1, len(free) + 1):
                for movable in itertools.combinations(free, size):
                    for level in range(1, top + 1):
                        yield level, fixed, movable


class TestConstructorIsThePartition:
    # the constructor accepts a triple exactly when it is the class of
    # some placement; a movable column that only partly meets the level
    # is still refused as the construction's domain error

    @pytest.mark.parametrize(
        "heights, triple",
        [
            # level 1 holds three rooks of the first member, level 2 two
            ((4, 4, 4, 4, 4), (1, ((1, 1), (4, 3), (5, 3)), (2, 3))),
            # two rooks in each level: the tie goes to level 1
            ((4, 4, 4, 4), (2, ((1, 1), (2, 1), (3, 3)), (4,))),
        ],
    )
    def test_class_of_another_level_rejected(self, heights, triple):
        board = make_board(heights)
        level, fixed, movable = triple
        first = FilePlacement(board, fixed + tuple((col, 2 * level - 1) for col in movable))
        assert canonical_class(first, 2).level != level
        with pytest.raises(ValueError, match="not the canonical class"):
            CancellationClass(board, 2, *triple)

    @pytest.mark.parametrize("m", [2, 3])
    def test_accepts_exactly_the_class_keys(self, m):
        for board in boards_up_to(3, 3 * m):
            if board.n and board.heights[-1] > m * board.n:
                continue
            keys = {
                brute_class_key(cells, m)
                for k in range(board.n + 1)
                for cells in brute_file_cells(board, k)
            }
            for triple in class_triples(board, m):
                level, fixed, movable = triple
                partial = any(board.heights[col - 1] < m * level for col in movable)
                try:
                    cls = CancellationClass(board, m, *triple)
                except NonSingletonBoardError:
                    assert triple not in keys or partial, (board, m, triple)
                    continue
                except ValueError:
                    assert triple not in keys, (board, m, triple)
                    continue
                assert triple in keys and not partial, (board, m, triple)
                assert (cls.level, cls.fixed_cells, cls.movable_columns) == triple

    @pytest.mark.parametrize("cell", [5, (1, 2, 3), (1,), None])
    def test_fixed_cell_that_is_not_a_pair_rejected(self, cell):
        with pytest.raises(ValueError, match=rf"cell {re.escape(repr(cell))} is not"):
            CancellationClass(make_board((4, 4, 4)), 2, 1, [(1, 1), cell], (2,))


class TestInClass:
    @pytest.mark.parametrize("m", [2, 3])
    def test_members_in_and_near_misses_out(self, m):
        checked = 0
        for board in singleton_boards(4, 2 * m, m):
            keys = {
                cancellation._class_key(cells, m)
                for k in range(2, board.n + 1)
                for cells in brute_file_cells(board, k)
            } - {None}
            for key in keys:
                level, _, movable = key
                members = class_members(CancellationClass._trusted(board, m, key))
                for member in members:
                    assert cancellation._in_class(member.cells, key, m), (key, member)
                first = list(members[0].cells)
                near_misses = [tuple(first[:-1]), tuple(first) + ((board.n + 1, 1),)]
                for i, (col, row) in enumerate(first):
                    if col in movable:
                        # the rows just below and just above the level
                        outside = (m * (level - 1), m * level + 1)
                    else:
                        outside = (row + 1,)
                    for moved in outside:
                        near_misses.append(tuple(first[:i] + [(col, moved)] + first[i + 1 :]))
                for cells in near_misses:
                    assert not cancellation._in_class(cells, key, m), (key, cells)
                checked += 1
        assert checked > 100


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

    def test_bool_column_rejected(self):
        fhat = FilePlacement(make_board((4, 4)), ((2, 1),))
        with pytest.raises(ValueError, match="not an integer"):
            reintroduction_sum(fhat, True, 1, 2)

    @pytest.mark.parametrize("level", [True, 1.5, 0])
    def test_bad_level_rejected(self, level):
        fhat = FilePlacement(make_board((4, 4)), ((1, 1),))
        # the message names the rejected value
        message = f"level {level!r} is not an integer"
        if level == 0:
            message = "level must be at least 1, got 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            reintroduction_sum(fhat, 2, level, 2)


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
        class_dicts = [cls.to_json_dict(s) for cls, s in zip(report.classes, report.class_sums)]
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
        real_split = cancellation._split

        def bottom_anchor_split(cells, level, m):
            # wrong rule: the anchor rook is frozen on the bottom row of
            # its level, so placements that differ only in the anchor's
            # row share a class that cannot generate them all
            level, fixed, movable = real_split(cells, level, m)
            bottom = m * (level - 1) + 1
            fixed = tuple(
                (c, bottom) if (r + m - 1) // m == level else (c, r) for c, r in fixed
            )
            return level, fixed, movable

        monkeypatch.setattr(cancellation, "_split", bottom_anchor_split)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert not report.ok
        assert not report.disjoint_cover
        assert report.witness in ("1:2;2:1", "1:2;2:2")

    def test_wrong_member_sweep_is_caught(self, monkeypatch):
        # a split whose fixed cells sit a level up names a class that holds
        # none of the placements given to it
        real_split = cancellation._split

        def split_lifted_a_level(cells, level, m):
            level, fixed, movable = real_split(cells, level, m)
            return level + 1, tuple((c, r + m) for c, r in fixed), movable

        monkeypatch.setattr(cancellation, "_split", split_lifted_a_level)
        report = verify_cover(make_board((4, 4)), 2, 2)
        assert not report.well_defined
        assert not report.disjoint_cover
        assert report.classes == ()
        assert report.witness == "1:1;2:1"

    def test_broken_member_weights_are_caught(self, monkeypatch):
        # +1 when the first rook is on row 1, else -1, and no factor for
        # the last rook: the total still vanishes, the two classes do not
        monkeypatch.setattr(
            cancellation, "weight", lambda placement, m: 1 if placement.cells[0][1] == 1 else -1
        )
        monkeypatch.setattr(cancellation, "_row_factors", lambda prefix, m, top: [1] * (top + 1))
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert report.well_defined and report.disjoint_cover and report.total_zero
        assert not report.class_sums_zero
        assert report.class_sums == (2, -2)
        assert report.witness == "1:1;2:1"

    def test_broken_total_is_caught(self, monkeypatch):
        # one weight per placement feeds both the total and its class sum
        monkeypatch.setattr(cancellation, "weight", lambda placement, m: 1)
        monkeypatch.setattr(cancellation, "_row_factors", lambda prefix, m, top: [1] * (top + 1))
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert report.well_defined and report.disjoint_cover
        assert not report.total_zero
        assert report.total_weight == 4
        assert not report.class_sums_zero
        assert report.class_sums == (2, 2)
        assert not report.ok

    @pytest.mark.parametrize("k", BAD_KS)
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError, match="rook count k"):
            verify_cover(make_board((2, 2)), 2, k)

    def test_repeated_first_member_is_caught(self, monkeypatch):
        # a split that already lists the column right of the prefix as
        # movable names, once the last rook there joins, a key listing that
        # column twice: m^2 members where the board holds m, since no
        # placement has two rooks in one column
        real_split = cancellation._split

        def split_claiming_the_next_column(cells, level, m):
            level, fixed, movable = real_split(cells, level, m)
            return level, fixed, movable + (cells[-1][0] + 1,)

        monkeypatch.setattr(cancellation, "_split", split_claiming_the_next_column)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert not report.well_defined
        assert not report.disjoint_cover
        assert report.witness == "1:1;2:1"

    def test_unsorted_member_is_not_credited(self, monkeypatch):
        # a split listing the anchor level's fixed rook first: where that is
        # not the column order, the placements are not members of the class
        # the key names and are not tallied
        real_split = cancellation._split

        def split_anchor_first(cells, level, m):
            level, fixed, movable = real_split(cells, level, m)
            fixed = tuple(sorted(fixed, key=lambda cell: (cell[1] + m - 1) // m != level))
            return level, fixed, movable

        monkeypatch.setattr(cancellation, "_split", split_anchor_first)
        report = verify_cover(make_board((2, 4, 4)), 2, 3)
        assert not report.well_defined
        assert not report.disjoint_cover
        assert report.witness == "1:1;2:3;3:3"

    def test_split_class_is_caught(self, monkeypatch):
        # a keyer that reads the placements of one prefix as m-level rook
        # placements leaves the class they share with another prefix short
        # of its m^j members.  Keys are read a prefix at a time, so the
        # smallest such class has two movable columns: (1, 1:1, (2, 3)) here
        real_keyer = cancellation._keyer

        def keyer_dropping_a_prefix(prefix, m):
            return ({}, None) if prefix == ((1, 1), (2, 2)) else real_keyer(prefix, m)

        monkeypatch.setattr(cancellation, "_keyer", keyer_dropping_a_prefix)
        report = verify_cover(make_board((2, 2, 2)), 2, 3)
        assert not report.well_defined
        assert not report.disjoint_cover
        assert not report.class_sums_zero
        assert report.nonrook_count == 6
        assert report.witness == "1:1;2:1;3:1"

    def test_movable_rook_outside_its_level_is_caught(self, monkeypatch):
        # a keyer that makes a last rook in an empty level a movable rook of
        # the prefix's level names a class the placement is not in: its row
        # lies outside the key's level
        real_keyer = cancellation._keyer

        def keyer_moving_every_rook(prefix, m):
            actions, _ = real_keyer(prefix, m)
            return actions, next(iter(actions.values()))

        monkeypatch.setattr(cancellation, "_keyer", keyer_moving_every_rook)
        report = verify_cover(make_board((4, 4)), 2, 2)
        assert not report.well_defined
        assert report.witness == "1:1;2:3"

    def test_each_placement_keyed_and_weighed_once(self, monkeypatch):
        # the keyer and the public weight run once per prefix of k - 1
        # rooks, each placement's key and weight are read off its prefix,
        # and each non-rook placement is tallied once
        calls = {"_keyer": 0, "weight": 0, "_class_key": 0}

        def counting(name):
            real = getattr(cancellation, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cancellation, name, counting(name))
        for heights, m, k in [
            ((1, 3, 4, 4, 4, 4, 4), 2, 6),
            ((2, 2), 2, 2),
            ((1, 3, 3, 6, 6), 3, 3),
            ((2, 4, 4, 6, 6), 2, 4),
            ((4, 4, 4, 4), 1, 3),
        ]:
            board = make_board(heights)
            calls.update(_keyer=0, weight=0, _class_key=0)
            report = verify_cover(board, m, k)
            assert report.ok
            # the last prefix rook leaves the last column free
            prefixes = file_count_formula(make_board(heights[:-1]), k - 1)
            # the per-placement key stays off the tally's path
            assert calls == {"_keyer": prefixes, "weight": prefixes, "_class_key": 0}, heights
            nonrook = sum(not is_mlevel_cells(cells, m) for cells in brute_file_cells(board, k))
            assert sum(cls.size for cls in report.classes) == report.nonrook_count == nonrook

    def test_classes_equal_public_construction(self):
        # the trusted builder behind verify_cover and canonical_class
        # stores what the validating constructor accepts and stores; from 5
        # columns on two conflicted levels can hold different counts
        families = [(m, singleton_boards(4, 2 * m, m)) for m in (2, 3)]
        families.append((2, singleton_boards(5, 4, 2, min_columns=5)))
        for m, boards in families:
            for board in boards:
                for k in range(board.n + 1):
                    classes = list(verify_cover(board, m, k).classes)
                    classes += [
                        canonical_class(p, m) for p in nonrook_file_placements(board, m, k)
                    ]
                    for cls in classes:
                        public = CancellationClass(
                            board, m, cls.level, cls.fixed_cells, cls.movable_columns
                        )
                        assert cls == public
                        assert all(type(cell) is tuple for cell in cls.fixed_cells)

    def test_derived_values_skip_the_validators(self, monkeypatch):
        # values derived from valid ones are built without re-validation
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} validated again")

        monkeypatch.setattr(FilePlacement, "__post_init__", refuse)
        monkeypatch.setattr(CancellationClass, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            FilePlacement(WIDE_BOARD, ())
        assert len(list(enumerate_file_placements(WIDE_BOARD, 6))) == 7936
        assert F0.without_column(4).to_string() == "2:3;3:2;5:4;6:1;7:3"
        cls = canonical_class(F0, 2)
        assert len(class_members(cls)) == 4
        assert verify_cover(WIDE_BOARD, 2, 6).ok

    def test_class_read_as_rook_placements_is_caught(self, monkeypatch):
        # a keyer that reads every placement of the classes fixing cell 1:1
        # as an m-level rook placement drops those classes from the walk's
        # count and from the tallied members alike; only the check against
        # e_k - r_k sees them go
        real_keyer = cancellation._keyer

        def keyer_dropping_classes(prefix, m):
            return ({}, None) if (1, 1) in prefix else real_keyer(prefix, m)

        monkeypatch.setattr(cancellation, "_keyer", keyer_dropping_classes)
        report = verify_cover(make_board((2, 2)), 2, 2)
        assert report.well_defined and report.class_sums_zero and report.total_zero
        assert report.nonrook_count == 2
        assert not report.disjoint_cover
        assert report.witness == "1:1;2:1"

    def test_nonrook_total_counts_placements(self):
        for board in boards_up_to(4, 6):
            for m in (1, 2, 3):
                for k in range(board.n + 2):
                    brute = sum(
                        not is_mlevel_cells(cells, m) for cells in brute_file_cells(board, k)
                    )
                    assert cancellation._nonrook_total(board, m, k) == brute

    def test_working_memory_has_no_per_placement_sets(self):
        # the walk's own memory: the traced peak less what the returned
        # report still holds (sets of placements per class key take 4.1 MB)
        board = make_board((1, 3, 4, 4, 4, 4, 4))
        tracemalloc.start()
        try:
            report = verify_cover(board, 2, 6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak - held < 2**20, peak - held

    @pytest.mark.parametrize("k", [0, 1, 2, 2**62])
    def test_empty_walk_costs_nothing_that_grows_with_height(self, k):
        # one column of 10**7 rows: no k walks it, so nothing per level is built
        board = make_board((10**7,))
        tracemalloc.start()
        try:
            report = verify_cover(board, 1, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok and report.nonrook_count == 0 and report.classes == ()
        assert peak < 64 * 2**10, peak


PLACEMENT_BUDGET = 5000


@st.composite
def singleton_board_and_m(draw):
    """A singleton board of at most 6 columns and heights at most m*n,
    grown by steps of at most m rows: a column that would be the second
    to enter a level partially is raised to the top of that level."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(0, 6))
    steps = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
    heights = []
    partial = set()
    h = 0
    for step in steps:
        h = min(h + step, m * n)
        level = -(-h // m)
        if h % m and level in partial:
            h = m * level
        elif h % m:
            partial.add(level)
        heights.append(h)
    # the set-based oracle holds every placement: keep it to a few thousand
    assume(math.prod(h + 1 for h in heights) <= PLACEMENT_BUDGET)
    return FerrersBoard(tuple(heights)), m


class TestVerifyCoverAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(singleton_board_and_m())
    def test_matches_set_based_verifier(self, board_and_m):
        board, m = board_and_m
        assert is_singleton(board, m)
        for k in range(board.n + 1):
            report = verify_cover(board, m, k)
            expected = brute_cover(board, m, k)
            assert report.nonrook_count == expected["nonrook_count"]
            assert [
                (cls.level, cls.fixed_cells, cls.movable_columns) for cls in report.classes
            ] == expected["classes"]
            assert list(report.class_sums) == expected["class_sums"]
            assert report.total_weight == expected["total_weight"]
            for flag in ("well_defined", "disjoint_cover", "class_sums_zero", "total_zero"):
                assert getattr(report, flag) is expected[flag], flag

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_set_based_verifier_exhaustively(self, m):
        # every singleton board of at most 4 columns and heights at most
        # min(6, m*n), every k
        cases = 0
        for board in singleton_boards(4, 6, m):
            if any(h > m * board.n for h in board.heights):
                continue
            for k in range(board.n + 1):
                report = verify_cover(board, m, k)
                expected = brute_cover(board, m, k)
                got = {
                    "nonrook_count": report.nonrook_count,
                    "classes": [
                        (cls.level, cls.fixed_cells, cls.movable_columns)
                        for cls in report.classes
                    ],
                    "class_sums": list(report.class_sums),
                    "well_defined": report.well_defined,
                    "disjoint_cover": report.disjoint_cover,
                    "class_sums_zero": report.class_sums_zero,
                    "total_zero": report.total_zero,
                    "total_weight": report.total_weight,
                }
                assert got == expected, (board, k)
                assert report.witness is None, (board, k)
                cases += 1
        assert cases == {2: 943, 3: 654}[m]
