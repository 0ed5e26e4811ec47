"""Command-line front door.

Every subcommand prints machine-readable output: JSON with sorted keys
by default (one object per line, newline-terminated), CSV where the
data is tabular.  Identical invocations produce byte-identical output.

Exit codes: 0 success (and all verifications passing), 1 a verification
failed, 2 usage or validation error (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .boards import (
    AmbientSizeError,
    _parse_ints,
    is_singleton,
    level_numbers,
    parse_board,
    zones,
)
from .cancellation import CoverReport, verify_cover
from .ffpoly import expand_roots
from .placements import (
    enumerate_file_placements,
    enumerate_m_level_rook_placements,
    rook_numbers,
)
from .rooktheory import (
    CHECK_NAMES,
    br_roots,
    census_level_numbers,
    gjw_roots,
    level_roots,
    m_level_equivalent,
    m_level_rook_poly,
    verify_factorizations,
    weighted_file_numbers,
    weighted_file_poly,
    zone_roots,
)

__all__ = ["entry", "main"]


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _parse_m(value: str) -> int:
    try:
        m = int(value)
    except ValueError:
        raise ValueError(f"m must be an integer, got {value!r}") from None
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return m


def _parse_k(value: str) -> int:
    try:
        k = int(value)
    except ValueError:
        raise ValueError(f"k must be an integer, got {value!r}") from None
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return k


def _cmd_info(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    try:
        levels: list[int] | None = list(level_numbers(board, m))
    except AmbientSizeError:
        levels = None
    _emit(
        {
            "board": str(board),
            "heights": list(board.heights),
            "n": board.n,
            "m": m,
            "total_cells": board.total_cells,
            "singleton": is_singleton(board, m),
            "zones": [
                {"start": z.start, "end": z.end, "floor": z.floor, "remainder": z.remainder}
                for z in zones(board, m)
            ],
            "level_numbers": levels,
        }
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    k = _parse_k(args.k)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"limit must be non-negative, got {args.limit}")
    if args.kind == "file":
        stream = enumerate_file_placements(board, k)
    elif args.kind == "rook":
        stream = enumerate_m_level_rook_placements(board, 1, k)
    else:
        stream = enumerate_m_level_rook_placements(board, m, k)
    shown: list[str] = []
    count = 0
    for placement in stream:
        if args.limit is None or count < args.limit:
            shown.append(placement.to_string())
        count += 1
    _emit(
        {
            "board": str(board),
            "m": m,
            "k": k,
            "kind": args.kind,
            "count": count,
            "placements": shown,
        }
    )
    return 0


def _cmd_numbers(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    if args.kind == "rook":
        values = rook_numbers(board, m)
    else:
        values = weighted_file_numbers(board, m)
    if args.format == "csv":
        print("k,value")
        for k, value in enumerate(values):
            print(f"{k},{value}")
    else:
        _emit({"board": str(board), "m": m, "kind": args.kind, "values": list(values)})
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    if args.form == "pm":
        poly = m_level_rook_poly(board, m)
    elif args.form == "file":
        poly = weighted_file_poly(board, m)
    elif args.form == "gjw":
        poly = expand_roots(gjw_roots(board))
    elif args.form == "br":
        poly = expand_roots(br_roots(board, m))
    elif args.form == "zone":
        poly = expand_roots(zone_roots(board, m))
    else:
        poly = expand_roots(level_roots(board, m))
    if args.basis == "mfalling":
        poly = poly.to_mfalling(m)
    _emit(poly.to_json_dict())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    checks = None if args.which == "all" else (args.which,)
    report = verify_factorizations(board, m, checks=checks)
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    m = _parse_m(args.m)
    k = None if args.k is None else _parse_k(args.k)
    ks = range(board.n + 1) if k is None else (k,)
    reports = [verify_cover(board, m, j) for j in ks]
    for report in reports:
        for class_dict in report.class_json_dicts():
            _emit(class_dict)
    witnesses = [r.witness for r in reports if r.witness is not None]
    # one report over every k covered; k is null when all counts ran
    summary = CoverReport(
        board=board,
        m=m,
        k=k,
        nonrook_count=sum(r.nonrook_count for r in reports),
        classes=tuple(c for r in reports for c in r.classes),
        class_sums=tuple(s for r in reports for s in r.class_sums),
        well_defined=all(r.well_defined for r in reports),
        disjoint_cover=all(r.disjoint_cover for r in reports),
        class_sums_zero=all(r.class_sums_zero for r in reports),
        total_zero=all(r.total_zero for r in reports),
        total_weight=sum(r.total_weight for r in reports),
        witness=witnesses[0] if witnesses else None,
    )
    _emit(summary.summary_json_dict())
    return 0 if summary.ok else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    board_a = parse_board(args.a)
    board_b = parse_board(args.b)
    m = _parse_m(args.m)
    _emit(
        {
            "a": str(board_a),
            "b": str(board_b),
            "m": m,
            "equivalent": m_level_equivalent(board_a, board_b, m),
            "rook_numbers_a": list(rook_numbers(board_a, m)),
            "rook_numbers_b": list(rook_numbers(board_b, m)),
        }
    )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    levels = _parse_ints(args.levels, "levels", ValueError)
    m = _parse_m(args.m)
    boards = census_level_numbers(levels, m)
    out = {"levels": list(levels), "m": m, "count": len(boards)}
    if args.list:
        out["boards"] = [str(b) for b in boards]
    _emit(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlrook",
        description="Exact m-level rook theory on Ferrers boards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="board geometry: zones, level numbers, singleton")
    p.add_argument("--board", required=True, help="comma-separated heights, e.g. 1,1,2,4")
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("enumerate", help="list placements in canonical order")
    p.add_argument("--board", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--kind", required=True, choices=("file", "rook", "mlevel"))
    p.add_argument("--limit", type=int, default=None,
                   help="cap listed placements; counts are unaffected")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("numbers", help="rook numbers or weighted file numbers")
    p.add_argument("--board", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--kind", required=True, choices=("rook", "file"))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(func=_cmd_numbers)

    p = sub.add_parser("poly", help="polynomials and expanded product forms")
    p.add_argument("--board", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--form", required=True,
                   choices=("pm", "file", "gjw", "br", "zone", "level"))
    p.add_argument("--basis", default="power", choices=("power", "mfalling"))
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("verify", help="check the factorization identities")
    p.add_argument("--board", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--which", default="all", choices=CHECK_NAMES + ("all",))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("partition", help="cancellation classes on a singleton board")
    p.add_argument("--board", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--k", default=None, help="rook count; all counts when omitted")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("equiv", help="m-level rook equivalence of two boards")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("census", help="boards matching given level numbers")
    p.add_argument("--levels", required=True,
                   help="comma-separated level numbers, top level first")
    p.add_argument("--m", required=True)
    p.add_argument("--list", action="store_true", help="also list the boards")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
