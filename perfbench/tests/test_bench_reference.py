"""The benchmark's reference answers agree with tests/oracles.py.

Every board with at most 5 columns of height at most 6, for m = 1, 2, 3.
"""

import itertools

import oracles

import reference as ref

MS = (1, 2, 3)


def _brute_class_count(cells_list, m):
    """Distinct cancellation classes, from the definition, over cell tuples."""
    keys = set()
    for cells in cells_list:
        levels = [(row + m - 1) // m for _, row in cells]
        counts = {lvl: levels.count(lvl) for lvl in set(levels)}
        conflicted = [(cnt, lvl) for lvl, cnt in counts.items() if cnt >= 2]
        if not conflicted:
            continue
        anchor = min(conflicted)[1]
        inside = [c for c, lvl in zip(cells, levels) if lvl == anchor]
        outside = [c for c, lvl in zip(cells, levels) if lvl != anchor]
        keys.add((anchor, tuple(sorted(outside + inside[:1])), tuple(col for col, _ in inside[1:])))
    return len(keys)


def test_reference_matches_oracles():
    checked = 0
    for board in oracles.boards_up_to(5, 6):
        h, n = board.heights, board.n
        e = ref.file_counts(h)
        per_m = {m: (ref.column_recurrence(h, m), ref.rook_numbers(h, m)) for m in MS}
        cover = {m: [(0, 0)] * (n + 1) for m in MS}
        for k in range(n + 1):
            cells_list = list(oracles.brute_file_cells(board, k))
            assert e[k] == oracles.file_count_formula(board, k) == len(cells_list)
            for m in MS:
                f, r = per_m[m]
                assert f[k] == sum(oracles.brute_weight(c, m) for c in cells_list)
                rook = sum(1 for c in cells_list if oracles.is_mlevel_cells(c, m))
                assert r[k] == rook
                if k >= 2 and oracles.brute_singleton_by_levels(board, m):
                    assert ref.cover_counts(h, m, k) == (len(cells_list) - rook, _brute_class_count(cells_list, m))
        for m in MS:
            f, r = per_m[m]
            assert ref.is_singleton(h, m) == oracles.brute_singleton_by_levels(board, m)
            pm = ref.mfalling_values(r[::-1], m)
            assert ref.product_values(ref.zone_constants(h, m)) == pm
            assert ref.product_values(ref.br_constants(h, m)) == ref.mfalling_values(f[::-1], m)
            if not h or h[-1] <= m * n:
                assert ref.level_numbers(h, m) == oracles.brute_level_numbers(board, m)
                assert ref.product_values(ref.level_constants(h, m)) == pm
            if ref.is_singleton(h, m):
                assert ref.product_values(ref.br_constants(h, m)) == pm
            if m == 1:
                assert ref.product_values(ref.gjw_constants(h)) == pm
            checked += 1
    assert checked == 3 * sum(1 for _ in oracles.boards_up_to(5, 6))


def test_expand_and_basis_change_agree_with_direct_products():
    for consts in ([], [3], [2, -1, 0, 5], [7, 7, -3, 4, 1, -9]):
        coeffs = ref.expand(consts)
        assert ref.power_values(coeffs) == ref.product_values(consts)
        for m in MS:
            assert ref.mfalling_values(ref.to_mfalling(coeffs, m), m) == ref.product_values(consts)


def test_census_count_and_candidate_cells():
    for n, m in ((2, 1), (3, 2), (4, 1)):
        boards = list(itertools.combinations_with_replacement(range(m * n + 1), n))
        assert len(boards) == ref.census_candidates(n, m)
        # every candidate board has exactly one level-number vector
        keys = {ref.level_numbers(h, m) for h in boards}
        assert sum(ref.census_count(levels, m) for levels in keys) == len(boards)
        # the census cell counter's closed form
        assert sum(map(sum, boards)) == ref.census_candidates(n, m) * n * m * n // 2
