import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrook.boards import AmbientSizeError, is_singleton, level_numbers, make_board
from mlrook.ffpoly import FFPoly, expand_roots
from mlrook.placements import (
    FilePlacement,
    _column_recurrence,
    _row_sweep,
    enumerate_file_placements,
    enumerate_m_level_rook_placements,
    rook_numbers,
)
from mlrook.rooktheory import (
    br_roots,
    census_level_numbers,
    gjw_roots,
    level_roots,
    m_level_equivalent,
    m_level_rook_poly,
    verify_factorizations,
    weight,
    weighted_file_numbers,
    weighted_file_poly,
    zone_roots,
)
from oracles import (
    boards_up_to,
    brute_census,
    brute_file_cells,
    brute_level_numbers,
    brute_rook_count,
    brute_weight,
    brute_weighted_file_number,
    brute_zones,
)

FIG_FILE_BOARD = make_board((2, 2, 4, 4, 4, 4))
FIG_FILE = FilePlacement(FIG_FILE_BOARD, ((1, 2), (3, 4), (4, 2), (5, 4), (6, 4)))


class TestWeight:
    def test_worked_example(self):
        # rows hold 2 and 3 rooks: (1)(-2) * (1)(-2)(-5) = -20 at m = 3
        assert weight(FIG_FILE, 3) == -20

    def test_empty_placement(self):
        for m in (1, 2, 7):
            assert weight(FilePlacement(make_board((3, 3)), ()), m) == 1

    def test_one_on_every_mlevel_placement(self):
        board = make_board((2, 3, 5))
        for m in (1, 2, 3):
            for k in range(board.n + 1):
                for p in enumerate_m_level_rook_placements(board, m, k):
                    assert weight(p, m) == 1

    def test_m1_kills_row_conflicts(self):
        p = FilePlacement(make_board((2, 2)), ((1, 1), (2, 1)))
        assert weight(p, 1) == 0
        assert weight(p, 2) == -1

    def test_exact_at_factorial_growth(self):
        # 25 rooks in one row: the weight is a 26-digit product, exactly
        board = make_board((1,) * 25)
        p = FilePlacement(board, tuple((c, 1) for c in range(1, 26)))
        expected = 1
        for i in range(25):
            expected *= 1 - 3 * i
        assert weight(p, 3) == expected
        assert abs(expected) > 10**25

    def test_matches_definition_on_every_small_placement(self):
        for board in boards_up_to(4, 6):
            placements = [
                p for k in range(board.n + 1) for p in enumerate_file_placements(board, k)
            ]
            for m in (1, 2, 3, 4):
                for p in placements:
                    assert weight(p, m) == brute_weight(p.cells, m), (p, m)


class TestWeightedFileNumbers:
    def test_small_board_values(self):
        assert weighted_file_numbers(make_board((1, 2)), 2) == (1, 3, 0)

    def test_matches_definition_sum(self):
        for board in boards_up_to(3, 4):
            for m in (1, 2, 3):
                vector = weighted_file_numbers(board, m)
                assert vector[0] == 1
                for k in range(board.n + 1):
                    direct = sum(
                        weight(p, m) for p in enumerate_file_placements(board, k)
                    )
                    assert vector[k] == direct
                    assert vector[k] == brute_weighted_file_number(board, m, k)

    def test_wide_board_has_no_depth_limit(self):
        # 1,200 columns of height 1 at m = 1: a second rook in the row weighs 0
        assert weighted_file_numbers(make_board((1,) * 1200), 1) == (1, 1200) + (0,) * 1199

    def test_few_tall_columns(self):
        # f_2 = 1000 * 1000 + 1000 * (1 - m): a shared row weighs 1 - m
        assert weighted_file_numbers(make_board((1000, 1000)), 2) == (1, 2000, 998000)

    @given(st.lists(st.integers(0, 8), max_size=5).map(sorted), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_counters_match_brute_force(self, heights, m):
        board = make_board(heights)
        rooks = rook_numbers(board, m)
        files = weighted_file_numbers(board, m)
        for k in range(board.n + 1):
            assert rooks[k] == brute_rook_count(board, m, k)
            assert files[k] == brute_weighted_file_number(board, m, k)


class TestColumnRecurrence:
    def test_matches_counter_and_brute_force(self):
        # the recurrence against the row sweep and against the weights
        # summed from the definition
        for board in boards_up_to(4, 6):
            heights = board.heights
            e = _column_recurrence(heights, 0)
            assert e == tuple(reversed(expand_roots(heights).coeffs)), board
            cells = [list(brute_file_cells(board, k)) for k in range(board.n + 1)]
            for m in (1, 2, 3, 4):
                f = _column_recurrence(heights, m)
                assert f == _row_sweep(heights, m), (board, m)
                assert f == tuple(sum(brute_weight(c, m) for c in by_k) for by_k in cells), (
                    board, m,
                )

    def test_coefficients_are_in_the_falling_basis(self):
        # (x + 1)(x + 2 - 1) = x^2 + 2x + 1 = ff(x, 2, 1) + 3 ff(x, 1, 1) + 1:
        # for t != 0 the recurrence gives the ff(x, n-k, t) coefficients,
        # not the power coefficients
        s = _column_recurrence((1, 2), 1)
        assert s == (1, 3, 1)
        assert FFPoly.mfalling(tuple(reversed(s)), 1).to_power().coeffs == (1, 2, 1)


def random_singleton_board(rng, n, m):
    """A seeded random singleton board of n columns with heights at most
    m*n: sorted random heights, each column but the last cut down to its
    m-floor where the next column's m-floor is no higher."""
    heights = sorted(rng.randint(0, m * n) for _ in range(n))
    for i in range(n - 1):
        if heights[i] % m and heights[i] // m >= heights[i + 1] // m:
            heights[i] -= heights[i] % m
    return make_board(heights)


def assert_singleton_theorem(board, m):
    """On a singleton board the br, zone and level products all expand to
    p_m, and the weighted file numbers are the m-level rook numbers."""
    pm = m_level_rook_poly(board, m)
    for roots in (br_roots, zone_roots, level_roots):
        assert expand_roots(roots(board, m)) == pm, (roots.__name__, board, m)
    assert weighted_file_numbers(board, m) == rook_numbers(board, m), (board, m)


class TestSingletonTheoremAtScale:
    @pytest.mark.parametrize("m", [2, 3])
    def test_converse_on_every_small_board(self, m):
        # f_k = r_k for every k exactly on the singleton boards: every board
        # of at most 5 columns inside its n levels (3,601 boards at m = 2,
        # 17,577 at m = 3)
        for n in range(6):
            for board in boards_up_to(n, m * n, min_columns=n):
                equal = weighted_file_numbers(board, m) == rook_numbers(board, m)
                assert equal == is_singleton(board, m), (board, m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_small_singleton_board(self, m):
        # every singleton board of at most 4 columns inside its n levels
        for n in range(5):
            for board in boards_up_to(n, m * n, min_columns=n):
                if is_singleton(board, m):
                    assert_singleton_theorem(board, m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_seeded_random_singleton_boards(self, m):
        rng = random.Random(m)
        for n in (10, 40, 120):
            board = random_singleton_board(rng, n, m)
            assert is_singleton(board, m)
            assert_singleton_theorem(board, m)


def equivalence_families():
    """(m, n, boards): every board of n <= 4 columns with heights up to
    m*n + 2m, so boards taller than their n ambient levels come in too."""
    for m in (1, 2, 3):
        for n in range(5):
            yield m, n, list(boards_up_to(n, m * n + 2 * m, min_columns=n))


def zone_roots_from_records(board, m):
    # the zone form built from the groupby oracle's zone records, one constant
    # per column, so it shares no zone rule with the library's one pass
    constants = []
    for start, end, floor, remainder in brute_zones(board, m):
        for i in range(start, end + 1):
            c = floor - (i - 1) * m
            if i == end:
                c += remainder
            constants.append(c)
    return tuple(sorted(constants))


def level_move_pair(n, m):
    """Two n-column boards, m >= 2, with equal level numbers: columns come
    in pairs of height m*q + 1, and b moves the cell in row m*q + 1 of one
    middle column to row m*q + 2 of the next, inside level q + 1."""
    a = [m * (i // 2) + 1 for i in range(n)]
    b = list(a)
    i = 2 * (n // 4)
    b[i] -= 1
    b[i + 1] += 1
    return make_board(a), make_board(b)


class TestRoots:
    def test_gjw_example(self):
        assert gjw_roots(make_board((1, 1, 2, 4))) == (0, 0, 1, 1)
        assert expand_roots(gjw_roots(make_board((1, 1, 2, 4)))).coeffs == (0, 0, 1, 2, 1)

    def test_gjw_empty(self):
        assert gjw_roots(make_board(())) == ()

    def test_gjw_two_columns(self):
        assert gjw_roots(make_board((1, 2))) == (1, 1)

    def test_br_examples(self):
        assert br_roots(make_board((1, 2)), 2) == (0, 1)
        assert br_roots(make_board((1, 1, 2, 4)), 2) == (-2, -2, -1, 1)

    def test_br_m1_collapses_to_gjw(self):
        for board in boards_up_to(4, 5):
            assert br_roots(board, 1) == gjw_roots(board)

    def test_zone_examples(self):
        assert zone_roots(make_board((1, 1, 2, 4)), 2) == (-2, -2, 0, 0)
        assert zone_roots(make_board((3, 3, 3)), 3) == (-3, 0, 3)

    def test_zone_equals_br_on_singletons(self):
        from mlrook.boards import is_singleton

        for board in boards_up_to(4, 5):
            for m in (2, 3):
                if is_singleton(board, m):
                    assert expand_roots(zone_roots(board, m)) == expand_roots(
                        br_roots(board, m)
                    ), (board, m)

    def test_level_examples(self):
        assert level_roots(make_board((1, 1, 2, 4)), 2) == (-2, -2, 0, 0)
        assert level_roots(make_board((1, 3, 4, 4, 4, 4, 4)), 2) == (
            -8, -6, -4, -2, 0, 1, 1
        )
        assert level_roots(make_board(()), 4) == ()

    def test_level_propagates_ambient_rejection(self):
        with pytest.raises(AmbientSizeError):
            level_roots(make_board((7,)), 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sorted_int_tuples(self, m):
        # equal multisets of roots compare equal as tuples
        for n in range(5):
            for board in boards_up_to(n, m * n, min_columns=n):
                for roots in (
                    gjw_roots(board),
                    br_roots(board, m),
                    zone_roots(board, m),
                    level_roots(board, m),
                ):
                    assert type(roots) is tuple and len(roots) == n, (board, m)
                    assert all(type(c) is int for c in roots), (board, m)
                    assert list(roots) == sorted(roots), (board, m)

    def test_one_pass_matches_the_zone_records(self):
        # zone_roots reads the library's zone pass; the oracle's groupby
        # records must give the same constants
        for m, n, boards in equivalence_families():
            for board in boards:
                assert zone_roots(board, m) == zone_roots_from_records(board, m), (board, m)
        big = 10**12
        for heights, m in [((), 1), ((), 5), ((big,), 1), ((big,), 7), ((big,), big),
                           ((1, big - 1, big, big, big + 1), 3), ((1, big, big), big)]:
            board = make_board(heights)
            assert zone_roots(board, m) == zone_roots_from_records(board, m), (heights, m)

    def test_zone_and_level_same_multiset(self):
        for board in boards_up_to(4, 6):
            for m in (1, 2, 3):
                if board.n and board.heights[-1] > m * board.n:
                    continue
                assert zone_roots(board, m) == level_roots(board, m), (board, m)


class TestPolynomials:
    def test_pm_two_columns(self):
        assert m_level_rook_poly(make_board((1, 2)), 2).coeffs == (0, 1, 1)

    def test_pm_m1_known_quartic(self):
        assert m_level_rook_poly(make_board((1, 1, 2, 4)), 1).coeffs == (0, 0, 1, 2, 1)

    def test_pm_empty_board(self):
        assert m_level_rook_poly(make_board(()), 3) == FFPoly((1,))

    def test_file_poly_two_columns(self):
        assert weighted_file_poly(make_board((1, 2)), 2).coeffs == (0, 1, 1)

    def test_file_poly_empty(self):
        assert weighted_file_poly(make_board(()), 2) == FFPoly((1,))

    def test_file_poly_equals_product_on_non_singleton(self):
        board = make_board((1, 2, 2, 3))
        assert weighted_file_poly(board, 3) == expand_roots(br_roots(board, 3))

    def test_file_factorization_family(self):
        for board in boards_up_to(3, 4):
            for m in (1, 2, 3):
                assert weighted_file_poly(board, m) == expand_roots(br_roots(board, m))

    def test_zone_level_factorizations_family(self):
        for board in boards_up_to(3, 4):
            for m in (1, 2, 3):
                pm = m_level_rook_poly(board, m)
                assert expand_roots(zone_roots(board, m)) == pm
                if board.n == 0 or board.heights[-1] <= m * board.n:
                    assert expand_roots(level_roots(board, m)) == pm


class TestVerifyFactorizations:
    def test_non_singleton_skips_br(self):
        report = verify_factorizations(make_board((1, 2, 2, 3)), 3)
        assert report.br_equals_pm is None
        assert report.gjw is None  # m != 1
        assert report.zone_equals_pm is True
        assert report.level_equals_pm is True
        assert report.file_equals_br_product is True
        assert report.ok

    def test_singleton_all_applicable(self):
        report = verify_factorizations(make_board((1, 2, 2, 3)), 2)
        assert report.br_equals_pm is True
        assert report.zone_equals_pm is True
        assert report.level_equals_pm is True
        assert report.file_equals_br_product is True
        assert report.ok

    def test_empty_board_vacuous(self):
        report = verify_factorizations(make_board(()), 1)
        assert report.ok
        assert report.gjw is True

    def test_level_not_applicable_when_too_tall(self):
        report = verify_factorizations(make_board((7,)), 2)
        assert report.level_equals_pm is None
        assert report.zone_equals_pm is True
        assert report.ok

    @pytest.mark.parametrize("m", [2, 3])
    def test_tall_board(self, m):
        # two columns of 10**9 rows: neither sweep may grow with the height;
        # two rooks share a level in sum(rows_in_level**2) of the H*H ways
        h = 10**9
        board = make_board((h, h))
        top, rem = divmod(h, m)
        assert rook_numbers(board, m) == (1, 2 * h, h * h - top * m * m - rem * rem)
        assert verify_factorizations(board, m, ("file",)).file_equals_br_product is True

    def test_requested_subset(self):
        report = verify_factorizations(make_board((1, 2)), 2, checks=("zone",))
        assert report.zone_equals_pm is True
        assert report.file_equals_br_product is None
        with pytest.raises(ValueError):
            verify_factorizations(make_board((1, 2)), 2, checks=("nope",))

    def test_bare_string_checks_rejected(self):
        # a str is iterable, so "br" would read as the names "b" and "r"
        with pytest.raises(ValueError, match=r"collection of names, for example \('br',\)"):
            verify_factorizations(make_board((1, 2)), 2, checks="br")

    def test_json_shape(self):
        d = verify_factorizations(make_board((1, 2)), 2).to_json_dict()
        assert set(d) == {"board", "m", "checks", "details"}
        assert set(d["checks"]) == {"gjw", "br_equals_pm", "zone", "level", "file"}
        assert d["details"] == {}

    def test_failed_check_reports_both_coefficient_vectors(self, monkeypatch):
        # force a bogus rook polynomial to exercise the failure plumbing
        import mlrook.rooktheory as rt

        monkeypatch.setattr(rt, "m_level_rook_poly", lambda b, m: FFPoly((7,)))
        report = rt.verify_factorizations(make_board((1, 2)), 2)
        assert report.zone_equals_pm is False
        assert not report.ok
        assert report.details["zone"] == {"lhs": [0, 1, 1], "rhs": [7]}

    def test_file_check_does_not_read_the_recurrence(self, monkeypatch):
        # the recurrence is the column product's own induction, so a wrong
        # one must not reach the check
        import mlrook.rooktheory as rt

        monkeypatch.setattr(rt, "_column_recurrence", lambda heights, t: (7,) * (len(heights) + 1))
        board = make_board((1, 3, 4, 4))
        assert rt.weighted_file_numbers(board, 2) == (7,) * 5
        assert rt.verify_factorizations(board, 2, ("file",)).file_equals_br_product is True

    def test_miscounted_file_numbers_fail_the_file_check(self, monkeypatch):
        import mlrook.rooktheory as rt

        def f1_off_by_one(heights, t):
            sums = list(_row_sweep(heights, t))
            sums[1] += 1
            return tuple(sums)

        monkeypatch.setattr(rt, "_row_sweep", f1_off_by_one)
        board = make_board((1, 3, 4, 4))
        report = rt.verify_factorizations(board, 2, ("file",))
        assert report.file_equals_br_product is False
        assert not report.ok
        f = list(weighted_file_numbers(board, 2))
        f[1] += 1
        assert report.details["file"] == {
            "lhs": list(rt._basis_sum_poly(f, 2).coeffs),
            "rhs": list(expand_roots(br_roots(board, 2)).coeffs),
        }

    @pytest.mark.parametrize(
        "check, field, heights, m",
        [
            ("level", "level_equals_pm", (7,), 2),  # taller than its 2 ambient rows
            ("gjw", "gjw", (1, 2, 2, 3), 2),  # m != 1
            ("br", "br_equals_pm", (1, 2, 2, 3), 3),  # not a singleton board
        ],
    )
    def test_check_outside_its_domain_builds_nothing(self, monkeypatch, check, field, heights, m):
        import mlrook.rooktheory as rt

        calls = []

        def counted(func):
            def wrapper(*args):
                calls.append(func.__name__)
                return func(*args)

            return wrapper

        monkeypatch.setattr(rt, "m_level_rook_poly", counted(rt.m_level_rook_poly))
        monkeypatch.setattr(rt, "expand_roots", counted(rt.expand_roots))
        report = rt.verify_factorizations(make_board(heights), m, (check,))
        assert getattr(report, field) is None
        assert report.ok
        assert calls == []

    @pytest.mark.parametrize(
        "patched, m, failed",
        [
            # a wrong p_m fails every check that reads it
            ("m_level_rook_poly", 1, {"gjw", "br_equals_pm", "zone", "level"}),
            ("m_level_rook_poly", 2, {"br_equals_pm", "zone", "level"}),
            # a wrong row sweep fails only the file check
            ("_row_sweep", 1, {"file"}),
            ("_row_sweep", 2, {"file"}),
            # a wrong product expansion fails every check
            ("expand_roots", 1, {"gjw", "br_equals_pm", "zone", "level", "file"}),
            ("expand_roots", 2, {"br_equals_pm", "zone", "level", "file"}),
        ],
    )
    def test_details_name_exactly_the_failed_checks(self, monkeypatch, patched, m, failed):
        import mlrook.rooktheory as rt

        board = make_board((1, 2, 4, 4))  # singleton at m = 1 and 2, and fits its levels
        assert rt.verify_factorizations(board, m).to_json_dict()["checks"] == {
            "gjw": True if m == 1 else None,
            "br_equals_pm": True,
            "zone": True,
            "level": True,
            "file": True,
        }
        bogus = {
            "m_level_rook_poly": lambda b, m: FFPoly((7,)),
            "_row_sweep": lambda heights, t: (7,) * (len(heights) + 1),
            "expand_roots": lambda roots: FFPoly((7, 0, 1)),
        }
        monkeypatch.setattr(rt, patched, bogus[patched])
        report = rt.verify_factorizations(board, m)
        assert not report.ok
        assert set(report.details) == failed
        checks = report.to_json_dict()["checks"]
        assert {key for key, passed in checks.items() if passed is False} == failed
        for d in report.details.values():
            assert set(d) == {"lhs", "rhs"} and d["lhs"] != d["rhs"]
        # each check alone fails the same way and reports only itself
        for name, key in zip(rt.CHECK_NAMES, checks):
            alone = rt.verify_factorizations(board, m, (name,))
            assert set(alone.details) == ({key} & failed)
            assert alone.ok is (key not in failed)

    @pytest.mark.parametrize("heights, m", [((1, 1, 2, 4), 1), ((1, 3, 4, 4), 2)])
    def test_column_product_expanded_once(self, monkeypatch, heights, m):
        # gjw (at m = 1), br and file share one column product; zone and
        # level are expanded apart, since their agreement is what is checked
        import mlrook.rooktheory as rt

        calls = []

        def counted(roots):
            calls.append(roots)
            return expand_roots(roots)

        monkeypatch.setattr(rt, "expand_roots", counted)
        report = rt.verify_factorizations(make_board(heights), m)
        assert report.ok
        assert report.br_equals_pm and report.file_equals_br_product
        assert len(calls) == 3  # column, zone and level


class TestEquivalence:
    def test_known_equivalent_pair(self):
        assert m_level_equivalent(make_board((1, 1, 2, 4)), make_board((1, 2, 2, 3)), 1)

    def test_reflexive(self):
        board = make_board((2, 3, 5))
        for m in (1, 2, 3):
            assert m_level_equivalent(board, board, m)

    def test_distinguishes_r1(self):
        assert not m_level_equivalent(make_board((1, 2)), make_board((2, 2)), 2)

    def test_different_column_counts(self):
        assert not m_level_equivalent(make_board((1,)), make_board((0, 1)), 1)

    def test_matches_polynomial_equality(self):
        boards = list(boards_up_to(3, 3, min_columns=3))
        for a, b in itertools.combinations(boards, 2):
            for m in (1, 2):
                poly_equal = m_level_rook_poly(a, m) == m_level_rook_poly(b, m)
                assert m_level_equivalent(a, b, m) == poly_equal

    def test_same_partition_as_the_rook_numbers(self):
        # rook_numbers is the oracle: on each family the boards group the
        # same way by rook numbers as by zone roots, and m_level_equivalent
        # joins each board to its class and no class to the next
        for m, n, boards in equivalence_families():
            by_rooks, by_roots = defaultdict(set), defaultdict(set)
            for board in boards:
                by_rooks[rook_numbers(board, m)].add(board)
                by_roots[zone_roots(board, m)].add(board)
            classes = {frozenset(c) for c in by_rooks.values()}
            assert classes == {frozenset(c) for c in by_roots.values()}, (m, n)
            firsts = [min(c, key=lambda b: b.heights) for c in by_rooks.values()]
            for first, cls in zip(firsts, by_rooks.values()):
                assert all(m_level_equivalent(first, board, m) for board in cls), (first, m)
            for a, b in zip(firsts, firsts[1:]):
                assert not m_level_equivalent(a, b, m), (a, b, m)

    def test_no_sweep_at_scale(self, monkeypatch):
        import mlrook.ffpoly as ff
        import mlrook.placements as pl
        import mlrook.rooktheory as rt

        def refuse(*args, **kwargs):
            raise AssertionError("m_level_equivalent ran a sweep or an expansion")

        for module in (rt, pl, ff):
            for name in ("rook_numbers", "_column_recurrence", "_row_sweep", "expand_roots"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        a, b = level_move_pair(2000, 3)
        assert a != b and level_numbers(a, 3) == level_numbers(b, 3)
        assert m_level_equivalent(a, b, 3)
        more = make_board(a.heights[:-1] + (a.heights[-1] + 1,))
        assert not m_level_equivalent(a, more, 3)  # r_1 is the cell count

    def test_level_move_pair_is_equivalent_by_rook_numbers(self):
        # the pair above, small enough to count
        for m in (2, 3):
            a, b = level_move_pair(12, m)
            assert rook_numbers(a, m) == rook_numbers(b, m), m


class TestCensus:
    def test_known_quadruple(self):
        boards = census_level_numbers((0, 0, 2, 6), 2)
        assert [str(b) for b in boards] == ["0,2,2,4", "0,2,3,3", "1,1,2,4", "1,1,3,3"]

    def test_single_match(self):
        boards = census_level_numbers((1, 2), 1)
        assert [b.heights for b in boards] == [(1, 2)]
        boards = census_level_numbers((3,), 10**9)
        assert [b.heights for b in boards] == [(3,)]
        # the part sizes up to m = 10**12 are never tried one by one
        boards = census_level_numbers((5 * 10**11, 10**12), 10**12)
        assert [b.heights for b in boards] == [(0, 1_500_000_000_000)]

    def test_all_zero_levels(self):
        boards = census_level_numbers((0, 0, 0), 2)
        assert [b.heights for b in boards] == [(0, 0, 0)]
        boards = census_level_numbers((0,) * 10, 9)
        assert [b.heights for b in boards] == [(0,) * 10]

    def test_empty_query(self):
        assert [b.heights for b in census_level_numbers((), 3)] == [()]

    def test_no_match_is_empty(self):
        assert census_level_numbers((5, 0), 2) == ()
        # the empty bottom levels admit no column, so no walk starts
        assert census_level_numbers((10**6, 10**7, 2 * 10**6, 0, 0), 10**6) == ()

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError):
            census_level_numbers((1, -2), 2)

    def test_bool_levels_rejected(self):
        with pytest.raises(ValueError, match="level number"):
            census_level_numbers((True, 2), 1)

    def test_round_trip_containment(self):
        for board in boards_up_to(3, 6):
            for m in (1, 2, 3):
                if board.n and board.heights[-1] > m * board.n:
                    continue
                matches = census_level_numbers(level_numbers(board, m), m)
                assert board in matches

    def test_members_reproduce_query(self):
        query = (0, 1, 4)
        for m in (2, 3):
            for board in census_level_numbers(query, m):
                assert brute_level_numbers(board, m) == query

    def test_matches_brute_census_on_realised_levels(self):
        for m in (1, 2, 3):
            realised = {
                brute_level_numbers(board, m)
                for board in boards_up_to(4, 4 * m)
                if board.n == 0 or board.heights[-1] <= m * board.n
            }
            for query in realised:
                boards = census_level_numbers(query, m)
                assert [b.heights for b in boards] == brute_census(query, m), (query, m)

    def test_matches_brute_census_on_every_small_vector(self):
        # most of these vectors are realised by no board at all
        for m in (1, 2):
            for n in range(4):
                for query in itertools.product(range(m * n + 1), repeat=n):
                    boards = census_level_numbers(query, m)
                    assert [b.heights for b in boards] == brute_census(query, m), (query, m)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random_boards(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 6))
        heights = sorted(data.draw(st.lists(st.integers(0, m * n), min_size=n, max_size=n)))
        board = make_board(heights)
        levels = level_numbers(board, m)
        assert levels == brute_level_numbers(board, m)
        census = census_level_numbers(levels, m)
        assert board in census
        for member in census:
            assert brute_level_numbers(member, m) == levels
