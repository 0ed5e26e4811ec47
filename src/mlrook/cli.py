"""Command-line front door.

Every subcommand prints machine-readable output: JSON with sorted keys
by default (one object per line, newline-terminated), CSV where the
data is tabular.  Identical invocations produce byte-identical output.

Exit codes: 0 success (and all verifications passing), 1 a verification
failed, 2 usage or validation error (diagnostic on stderr).

Every option value is read in one place before a subcommand runs.
``--m`` (at least 1), ``--k`` and ``--limit`` (at least 0) share one
integer reader, so a bad value of any of them, like a bad board or
levels string, gets a one-line ``error:`` diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from .boards import AmbientSizeError, _parse_ints, is_singleton, level_numbers, parse_board, zones
from .cancellation import CoverReport, verify_cover
from .ffpoly import expand_roots
from .placements import enumerate_file_placements, enumerate_m_level_rook_placements, rook_numbers
from .rooktheory import (
    CHECK_NAMES, br_roots, census_level_numbers, gjw_roots, level_roots, m_level_equivalent,
    m_level_rook_poly, verify_factorizations, weighted_file_numbers, weighted_file_poly,
    zone_roots,
)

__all__ = ["entry", "main"]


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _int(text: str, name: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


# How main() reads each option given, in this order.  Here and in _FORMS a
# lambda looks its function up when called, so a wrapper bound later to
# the module-level name (as perfbench's tracer binds them) is the one used.
_READERS = {
    "board": lambda text: parse_board(text),
    "a": lambda text: parse_board(text),
    "b": lambda text: parse_board(text),
    "levels": lambda text: _parse_ints(text, "levels", ValueError),
    "m": lambda text: _int(text, "m", 1),
    "k": lambda text: _int(text, "k", 0),
    "limit": lambda text: _int(text, "limit", 0),
}

# poly --form: each form's power-basis polynomial
_FORMS = {
    "pm": lambda board, m: m_level_rook_poly(board, m),
    "file": lambda board, m: weighted_file_poly(board, m),
    "gjw": lambda board, m: expand_roots(gjw_roots(board)),
    "br": lambda board, m: expand_roots(br_roots(board, m)),
    "zone": lambda board, m: expand_roots(zone_roots(board, m)),
    "level": lambda board, m: expand_roots(level_roots(board, m)),
}


def _cmd_info(args: argparse.Namespace) -> int:
    board, m = args.board, args.m
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
            "zones": [vars(zone) for zone in zones(board, m)],
            "level_numbers": levels,
        }
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    board, m, k = args.board, args.m, args.k
    if args.kind == "file":
        stream = enumerate_file_placements(board, k)
    else:
        stream = enumerate_m_level_rook_placements(board, m if args.kind == "mlevel" else 1, k)
    shown = [placement.to_string() for placement in islice(stream, args.limit)]
    count = len(shown) + sum(1 for _ in stream)
    _emit({"board": str(board), "m": m, "k": k, "kind": args.kind, "count": count,
           "placements": shown})
    return 0


def _cmd_numbers(args: argparse.Namespace) -> int:
    board, m = args.board, args.m
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
    poly = _FORMS[args.form](args.board, args.m)
    if args.basis == "mfalling":
        poly = poly.to_mfalling(args.m)
    _emit(poly.to_json_dict())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = None if args.which == "all" else (args.which,)
    report = verify_factorizations(args.board, args.m, checks=checks)
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    board, m, k = args.board, args.m, args.k
    reports = [verify_cover(board, m, j) for j in (range(board.n + 1) if k is None else (k,))]
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
    a, b, m = args.a, args.b, args.m
    _emit({"a": str(a), "b": str(b), "m": m, "equivalent": m_level_equivalent(a, b, m),
           "rook_numbers_a": list(rook_numbers(a, m)),
           "rook_numbers_b": list(rook_numbers(b, m))})
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    boards = census_level_numbers(args.levels, args.m)
    out = {"levels": list(args.levels), "m": args.m, "count": len(boards)}
    if args.list:
        out["boards"] = [str(b) for b in boards]
    _emit(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlrook", description="Exact m-level rook theory on Ferrers boards.")
    sub = parser.add_subparsers(dest="command", required=True)
    board = argparse.ArgumentParser(add_help=False)
    board.add_argument("--board", required=True, help="comma-separated heights, e.g. 1,1,2,4")
    m = argparse.ArgumentParser(add_help=False)
    m.add_argument("--m", required=True)

    def command(name, func, about, parents=(board, m)):
        p = sub.add_parser(name, help=about, parents=parents)
        p.set_defaults(func=func)
        return p

    command("info", _cmd_info, "board geometry: zones, level numbers, singleton")

    p = command("enumerate", _cmd_enumerate, "list placements in canonical order")
    p.add_argument("--k", required=True)
    p.add_argument("--kind", required=True, choices=("file", "rook", "mlevel"))
    p.add_argument("--limit", help="cap listed placements; counts are unaffected")

    p = command("numbers", _cmd_numbers, "rook numbers or weighted file numbers")
    p.add_argument("--kind", required=True, choices=("rook", "file"))
    p.add_argument("--format", default="json", choices=("json", "csv"))

    p = command("poly", _cmd_poly, "polynomials and expanded product forms")
    p.add_argument("--form", required=True, choices=tuple(_FORMS))
    p.add_argument("--basis", default="power", choices=("power", "mfalling"))

    p = command("verify", _cmd_verify, "check the factorization identities")
    p.add_argument("--which", default="all", choices=CHECK_NAMES + ("all",))

    p = command("partition", _cmd_partition, "cancellation classes on a singleton board")
    p.add_argument("--k", help="rook count; all counts when omitted")

    p = command("equiv", _cmd_equiv, "m-level rook equivalence of two boards", (m,))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = command("census", _cmd_census, "boards matching given level numbers", (m,))
    p.add_argument("--levels", required=True,
                   help="comma-separated level numbers, top level first")
    p.add_argument("--list", action="store_true", help="also list the boards")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, read in _READERS.items():
            text = getattr(args, name, None)
            if text is not None:
                setattr(args, name, read(text))
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
