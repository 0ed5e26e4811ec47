import dataclasses
import json
import sys
from itertools import combinations_with_replacement

import pytest

import mlrook.cancellation as cancellation
import mlrook.cli as cli
from mlrook.boards import FerrersBoard, is_singleton
from mlrook.cancellation import verify_cover
from mlrook.cli import main
from mlrook.placements import enumerate_file_placements, enumerate_m_level_rook_placements


# the four checks of a partition summary
FLAGS = ("well_defined", "disjoint_cover", "class_sums_zero", "total_zero")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_non_singleton_board(self, capsys):
        code, out, err = run_cli(capsys, "info", "--board", "1,2,2,3", "--m", "3")
        assert code == 0
        assert err == ""
        assert out == (
            '{"board": "1,2,2,3", "heights": [1, 2, 2, 3],'
            ' "level_numbers": [0, 0, 0, 8], "m": 3, "n": 4,'
            ' "singleton": false, "total_cells": 8,'
            ' "zones": [{"end": 3, "floor": 0, "remainder": 5, "start": 1},'
            ' {"end": 4, "floor": 3, "remainder": 0, "start": 4}]}\n'
        )

    def test_singleton_field_flips_with_m(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--board", "1,2,2,3", "--m", "2")
        assert code == 0
        assert json.loads(out)["singleton"] is True

    def test_empty_board(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--board", "", "--m", "2")
        assert code == 0
        assert json.loads(out) == {
            "board": "",
            "heights": [],
            "level_numbers": [],
            "m": 2,
            "n": 0,
            "singleton": True,
            "total_cells": 0,
            "zones": [],
        }

    def test_too_tall_board_has_null_levels(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--board", "7", "--m", "2")
        assert code == 0
        assert json.loads(out)["level_numbers"] is None


class TestEnumerate:
    def test_file_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--board", "1,2", "--m", "2", "--k", "1", "--kind", "file"
        )
        assert code == 0
        assert out == (
            '{"board": "1,2", "count": 3, "k": 1, "kind": "file", "m": 2,'
            ' "placements": ["1:1", "2:1", "2:2"]}\n'
        )

    def test_wide_board_has_no_depth_limit(self, capsys):
        board = ",".join(["1"] * 1200)
        code, out, _ = run_cli(
            capsys, "enumerate", "--board", board, "--m", "1", "--k", "1",
            "--kind", "file", "--limit", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 1200
        assert data["placements"] == ["1:1"]

    def test_huge_k_counts_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--board", "1,2", "--m", "2", "--k", str(2**62),
            "--kind", "file",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 0

    def test_negative_limit_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "enumerate", "--board", "1,2", "--m", "2", "--k", "1",
            "--kind", "file", "--limit", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_limit_caps_listing_not_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--board", "1,2", "--m", "2", "--k", "1",
            "--kind", "file", "--limit", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert data["placements"] == ["1:1", "2:1"]

    def test_limit_beyond_maxsize_lists_everything(self, capsys):
        code, out, err = run_cli(
            capsys,
            "enumerate", "--board", "1,2", "--m", "2", "--k", "1",
            "--kind", "file", "--limit", str(10**20),
        )
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["count"] == 3
        assert data["placements"] == ["1:1", "2:1", "2:2"]

    def test_rook_kind_ignores_m(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--board", "4,4,4,4", "--m", "3", "--k", "4", "--kind", "rook",
        )
        assert code == 0
        assert json.loads(out)["count"] == 24

    def test_mlevel_kind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--board", "1,2", "--m", "2", "--k", "2", "--kind", "mlevel",
        )
        assert code == 0
        assert json.loads(out)["count"] == 0

    @pytest.mark.parametrize("kind", ["file", "rook", "mlevel"])
    def test_count_is_the_walked_count(self, capsys, kind):
        # the count comes from e_k or r_k; walking every placement agrees,
        # and k past the last column counts none
        for heights in [(), (1, 2), (2, 2, 3), (1, 3, 3, 6), (0, 2, 4, 4, 5)]:
            board = FerrersBoard(heights)
            for m in (1, 2):
                for k in range(board.n + 2):
                    if kind == "file":
                        walked = enumerate_file_placements(board, k)
                    else:
                        walked = enumerate_m_level_rook_placements(
                            board, m if kind == "mlevel" else 1, k
                        )
                    code, out, _ = run_cli(
                        capsys, "enumerate", "--board", str(board), "--m", str(m),
                        "--k", str(k), "--kind", kind, "--limit", "0",
                    )
                    assert code == 0
                    assert json.loads(out)["count"] == sum(1 for _ in walked), (board, m, k)

    @pytest.mark.parametrize("kind", ["file", "rook", "mlevel"])
    def test_limit_bounds_the_walk(self, capsys, monkeypatch, kind):
        # the CLI pulls at most --limit records from the enumerator
        pulled = []

        def counting(real):
            def wrapper(*args):
                for placement in real(*args):
                    pulled.append(placement)
                    yield placement

            return wrapper

        for name in ("enumerate_file_placements", "enumerate_m_level_rook_placements"):
            monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
        for limit in (0, 1, 3):
            pulled.clear()
            code, out, _ = run_cli(
                capsys, "enumerate", "--board", "3,3,3,3,3,3", "--m", "1", "--k", "3",
                "--kind", kind, "--limit", str(limit),
            )
            assert code == 0
            data = json.loads(out)
            assert len(pulled) == len(data["placements"]) == limit
            assert data["count"] > limit


class TestNumbers:
    def test_rook_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "numbers", "--board", "1,1,2,4", "--m", "2", "--kind", "rook"
        )
        assert code == 0
        assert out == (
            '{"board": "1,1,2,4", "kind": "rook", "m": 2, "values": [1, 8, 8, 0, 0]}\n'
        )

    def test_rook_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers", "--board", "1,1,2,4", "--m", "2", "--kind", "rook",
            "--format", "csv",
        )
        assert code == 0
        assert out == "k,value\n0,1\n1,8\n2,8\n3,0\n4,0\n"

    def test_file_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numbers", "--board", "1,2", "--m", "2", "--kind", "file",
            "--format", "csv",
        )
        assert code == 0
        assert out == "k,value\n0,1\n1,3\n2,0\n"


    def test_wide_board_has_no_depth_limit(self, capsys):
        board = ",".join(["1"] * 1200)
        code, out, _ = run_cli(
            capsys, "numbers", "--board", board, "--m", "1", "--kind", "rook"
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert len(values) == 1201
        assert values[:3] == [1, 1200, 0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_answers_have_no_digit_limit(self, capsys, fmt):
        # r_2 = H(H - 1) = 10**4400 - 10**2200 has 4,400 digits, past CPython's
        # int/str conversion limit; the caller's limit is back after the run
        height = "1" + "0" * 2200
        r2 = "9" * 2200 + "0" * 2200
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(
            capsys, "numbers", "--board", f"{height},{height}", "--m", "1", "--kind", "rook",
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            assert out.endswith(f'"values": [1, 2{height[1:]}, {r2}]}}\n')
        else:
            assert out == f"k,value\n0,1\n1,2{height[1:]}\n2,{r2}\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before

    def test_height_past_the_digit_limit_is_read(self, capsys):
        # a height of 5,001 digits, one column: r_1 is the height itself
        height = "1" + "0" * 5000
        code, out, err = run_cli(
            capsys, "numbers", "--board", height, "--m", "1", "--kind", "rook", "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert out == f"k,value\n0,1\n1,{height}\n"


class TestPoly:
    def test_gjw_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--board", "1,1,2,4", "--m", "1", "--form", "gjw"
        )
        assert code == 0
        assert out == '{"basis": "power", "coeffs": [0, 0, 1, 2, 1]}\n'

    def test_pm_power(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--board", "1,2", "--m", "2", "--form", "pm")
        assert code == 0
        assert out == '{"basis": "power", "coeffs": [0, 1, 1]}\n'

    def test_pm_mfalling_carries_m(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poly", "--board", "1,2", "--m", "2", "--form", "pm", "--basis", "mfalling",
        )
        assert code == 0
        assert out == '{"basis": "mfalling", "coeffs": [0, 3, 1], "m": 2}\n'

    def test_zone_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--board", "1,1,2,4", "--m", "2", "--form", "zone"
        )
        assert code == 0
        assert out == '{"basis": "power", "coeffs": [0, 0, 4, -4, 1]}\n'

    def test_file_equals_br(self, capsys):
        _, out_file, _ = run_cli(
            capsys, "poly", "--board", "1,2,2,3", "--m", "3", "--form", "file"
        )
        _, out_br, _ = run_cli(
            capsys, "poly", "--board", "1,2,2,3", "--m", "3", "--form", "br"
        )
        assert out_file == out_br


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--board", "1,1,2,4", "--m", "2", "--which", "all")
        assert code == 0
        assert out == (
            '{"board": "1,1,2,4", "checks": {"br_equals_pm": null, "file": true,'
            ' "gjw": null, "level": true, "zone": true}, "details": {}, "m": 2}\n'
        )

    def test_default_which_is_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--board", "1,2,2,3", "--m", "3")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks == {
            "br_equals_pm": None,
            "file": True,
            "gjw": None,
            "level": True,
            "zone": True,
        }

    def test_single_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--board", "1,2", "--m", "2", "--which", "zone"
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["zone"] is True
        assert checks["file"] is None

    def test_m1_runs_gjw(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--board", "1,1,2,4", "--m", "1")
        assert code == 0
        assert json.loads(out)["checks"]["gjw"] is True

    def test_failed_verification_exits_1(self, capsys, monkeypatch):
        import mlrook.rooktheory as rt
        from mlrook.ffpoly import FFPoly

        monkeypatch.setattr(rt, "m_level_rook_poly", lambda b, m: FFPoly((7,)))
        code, out, _ = run_cli(capsys, "verify", "--board", "1,2", "--m", "2")
        assert code == 1
        data = json.loads(out)
        assert data["checks"]["zone"] is False
        assert data["details"]["zone"] == {"lhs": [0, 1, 1], "rhs": [7]}


class TestPartition:
    def test_single_k(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--board", "1,2", "--m", "2", "--k", "2")
        assert code == 0
        assert out == (
            '{"fixed": "1:1", "level": 1, "movable_columns": [2], "size": 2,'
            ' "weight_sum": 0}\n'
            '{"board": "1,2", "class_sums_zero": true, "disjoint_cover": true,'
            ' "k": 2, "m": 2, "nonrook_placements": 2, "num_classes": 1, "ok": true,'
            ' "total_weight": 0, "total_zero": true, "well_defined": true,'
            ' "witness": null}\n'
        )

    def test_all_k_summary(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--board", "1,2", "--m", "2")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["k"] is None
        assert summary["ok"] is True
        assert summary["num_classes"] == 1

    def test_wide_board_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "--board", "1,3,4,4,4,4,4", "--m", "2", "--k", "6"
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["ok"] is True
        assert summary["nonrook_placements"] == 7936
        assert summary["total_weight"] == 0

    def test_failed_cover_exits_1(self, capsys, monkeypatch):
        # +1 when the first rook is on row 1, else -1, and no factor for the
        # last rook: the classes of k = 2 sum to 2 and -2 while every total
        # vanishes
        monkeypatch.setattr(
            cancellation, "weight", lambda placement, m: 1 if placement.cells[0][1] == 1 else -1
        )
        monkeypatch.setattr(cancellation, "_row_counts", lambda prefix, m: ({}, {}))
        code, out, _ = run_cli(capsys, "partition", "--board", "2,2", "--m", "2")
        assert code == 1
        summary = json.loads(out.splitlines()[-1])
        assert summary["class_sums_zero"] is False
        assert summary["total_zero"] is True
        assert summary["ok"] is False
        assert summary["witness"] == "1:1;2:1"
        per_k = [cancellation.verify_cover(FerrersBoard((2, 2)), 2, j) for j in range(3)]
        assert summary["nonrook_placements"] == sum(r.nonrook_count for r in per_k)
        assert summary["num_classes"] == sum(len(r.classes) for r in per_k)

    def test_all_k_summary_merges_the_per_k_summaries(self, capsys, monkeypatch):
        # building the parser is most of a call's time, so it is built once
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        m = 2
        for n in range(5):
            for heights in combinations_with_replacement(range(2 * m + 3), n):
                board = FerrersBoard(heights)
                if not is_singleton(board, m):
                    continue
                per_k = [verify_cover(board, m, j).summary_json_dict() for j in range(n + 1)]
                witnesses = [s["witness"] for s in per_k if s["witness"] is not None]
                expected = {
                    "board": str(board),
                    "m": m,
                    "k": None,
                    "witness": witnesses[0] if witnesses else None,
                }
                for name in ("nonrook_placements", "num_classes", "total_weight"):
                    expected[name] = sum(s[name] for s in per_k)
                for name in FLAGS:
                    expected[name] = all(s[name] for s in per_k)
                expected["ok"] = all(s["ok"] for s in per_k)
                code, out, _ = run_cli(capsys, "partition", "--board", str(board), "--m", str(m))
                assert code == 0
                assert json.loads(out.splitlines()[-1]) == expected

    @pytest.mark.parametrize("flag", FLAGS)
    def test_all_k_summary_carries_a_failed_flag(self, capsys, monkeypatch, flag):
        # one k's report fails one flag: the merged summary fails it and ok,
        # names that k's witness, and the command exits 1
        board, m = FerrersBoard((2, 2, 4, 4)), 2

        def fail_at_k3(board, m, k):
            report = verify_cover(board, m, k)
            if k == 3:
                report = dataclasses.replace(report, **{flag: False}, witness="1:1;2:1;3:1")
            return report

        monkeypatch.setattr(cli, "verify_cover", fail_at_k3)
        code, out, _ = run_cli(capsys, "partition", "--board", str(board), "--m", str(m))
        assert code == 1
        summary = json.loads(out.splitlines()[-1])
        assert summary["k"] is None
        assert summary["witness"] == "1:1;2:1;3:1"
        assert {name: summary[name] for name in (*FLAGS, "ok")} == {
            **{name: name != flag for name in FLAGS}, "ok": False,
        }

    def test_all_k_prints_each_k_before_the_next_runs(self, capsys, monkeypatch):
        # partition without --k holds one k's classes at a time: every class
        # line of k - 1 is written before verify_cover runs for k
        board, m = FerrersBoard((2, 2, 4, 4)), 2
        per_k = [
            [
                json.dumps(cls.to_json_dict(s), sort_keys=True)
                for cls, s in zip(report.classes, report.class_sums)
            ]
            for report in (verify_cover(board, m, j) for j in range(board.n + 1))
        ]
        assert [len(lines) for lines in per_k] == [0, 0, 14, 40, 18]
        written = []

        def verify_after_the_earlier_ks(board, m, k):
            written.extend(capsys.readouterr().out.splitlines())
            assert written == [line for lines in per_k[:k] for line in lines], k
            return verify_cover(board, m, k)

        monkeypatch.setattr(cli, "verify_cover", verify_after_the_earlier_ks)
        code, out, _ = run_cli(capsys, "partition", "--board", str(board), "--m", str(m))
        assert code == 0
        assert written + out.splitlines()[:-1] == [line for lines in per_k for line in lines]

    def test_each_class_line_is_written_before_the_next_is_rendered(self, capsys, monkeypatch):
        # a listing holds one class's dict at a time, not every dict of a k
        log = []
        real_emit, real_render = cli._emit, cancellation.CancellationClass.to_json_dict

        def logged_emit(obj):
            log.append("emit")
            real_emit(obj)

        def logged_render(cls, weight_sum):
            log.append("render")
            return real_render(cls, weight_sum)

        monkeypatch.setattr(cli, "_emit", logged_emit)
        monkeypatch.setattr(cancellation.CancellationClass, "to_json_dict", logged_render)
        code, out, _ = run_cli(capsys, "partition", "--board", "2,2,4,4", "--m", "2")
        assert code == 0
        assert log == ["render", "emit"] * 72 + ["emit"]  # 14 + 40 + 18 classes, then the summary
        assert len(out.splitlines()) == 73

    def test_huge_k_has_no_classes(self, capsys):
        code, out, err = run_cli(
            capsys, "partition", "--board", "1,2", "--m", "2", "--k", str(2**62)
        )
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["nonrook_placements"] == 0
        assert summary["ok"] is True

    def test_non_singleton_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "partition", "--board", "1,2,2,3", "--m", "3")
        assert code == 2
        assert out == ""
        assert "singleton" in err


class TestEquiv:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "equiv", "--a", "1,1,2,4", "--b", "1,2,2,3", "--m", "1"
        )
        assert code == 0
        assert out == (
            '{"a": "1,1,2,4", "b": "1,2,2,3", "equivalent": true, "m": 1,'
            ' "rook_numbers_a": [1, 8, 14, 4, 0], "rook_numbers_b": [1, 8, 14, 4, 0]}\n'
        )

    def test_inequivalent_pair(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--a", "1,2", "--b", "2,2", "--m", "2")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is False
        assert data["rook_numbers_a"] == [1, 3, 0]
        assert data["rook_numbers_b"] == [1, 4, 0]


class TestCensus:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--levels", "0,0,2,6", "--m", "2")
        assert code == 0
        assert out == '{"count": 4, "levels": [0, 0, 2, 6], "m": 2}\n'

    def test_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--levels", "0,0,2,6", "--m", "2", "--list"
        )
        assert code == 0
        assert json.loads(out)["boards"] == ["0,2,2,4", "0,2,3,3", "1,1,2,4", "1,1,3,3"]

    def test_non_integer_level_exits_2(self, capsys):
        # the same message as a bad board token
        code, out, err = run_cli(capsys, "census", "--levels", "0, x", "--m", "2")
        assert (code, out) == (2, "")
        assert err == "error: bad levels string: token 'x' at position 2 is not an integer\n"

    def test_negative_level_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "census", "--levels", "0,-1", "--m", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "-1" in err
        assert "\n" not in err.strip()


class TestErrorsAndDeterminism:
    def test_bad_board_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "info", "--board", "2,1", "--m", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "column 2" in err
        assert "\n" not in err.strip()

    def test_bad_m_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "info", "--board", "1,2", "--m", "0")
        assert code == 2
        assert "m must be" in err

    def test_bad_k_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enumerate", "--board", "1,2", "--m", "2", "--k", "-1", "--kind", "file",
        )
        assert code == 2
        assert "k must be" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["numbers", "--board", "1,2", "--m", "2", "--kind", "bogus"])
        assert excinfo.value.code == 2

    def test_byte_identical_reruns(self, capsys):
        argv = ("verify", "--board", "1,1,2,4", "--m", "2", "--which", "all")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
