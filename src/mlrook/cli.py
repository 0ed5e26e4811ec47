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

from .boards import (
    _check_int, _fits_levels, _parse_ints, is_singleton, level_numbers, parse_board, zones,
)
from .cancellation import verify_cover
from .placements import (
    _column_recurrence, enumerate_file_placements, enumerate_m_level_rook_placements, rook_numbers,
)
from .rooktheory import (
    _FORMS, CHECK_NAMES, census_level_numbers, m_level_equivalent, verify_factorizations,
    weighted_file_numbers,
)

__all__ = ["entry", "main"]


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _int(text: str, name: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    _check_int(name, value, low)
    return value


# How main() reads each option given, in this order.  A lambda looks its
# function up when called, so a wrapper bound later to the module-level
# name (as perfbench's tracer binds them) is the one used.
_READERS = {
    "board": lambda text: parse_board(text),
    "a": lambda text: parse_board(text),
    "b": lambda text: parse_board(text),
    "levels": lambda text: _parse_ints(text, "levels", ValueError),
    "m": lambda text: _int(text, "m", 1),
    "k": lambda text: _int(text, "k", 0),
    "limit": lambda text: _int(text, "limit", 0),
}

def _cmd_info(args: argparse.Namespace) -> int:
    board, m = args.board, args.m
    levels = list(level_numbers(board, m)) if _fits_levels(board, m) else None
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
    # only the listed placements are walked; the count is e_k or r_k
    if args.kind == "file":
        stream = enumerate_file_placements(board, k)
        counts = _column_recurrence(board.heights, 0)
    else:
        block = m if args.kind == "mlevel" else 1
        stream = enumerate_m_level_rook_placements(board, block, k)
        counts = rook_numbers(board, block)
    shown = [placement.to_string() for placement in islice(stream, args.limit)]
    _emit({"board": str(board), "m": m, "k": k, "kind": args.kind,
           "count": counts[k] if k <= board.n else 0, "placements": shown})
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
    summaries = []
    for j in range(board.n + 1) if k is None else (k,):
        report = verify_cover(board, m, j)
        for cls, weight_sum in zip(report.classes, report.class_sums):
            _emit(cls.to_json_dict(weight_sum))
        summaries.append(report.summary_json_dict())
        del report  # so the next k's walk holds only its own classes
    # one summary merged over every k covered; k is null when all counts ran
    summary = {**summaries[0], "k": k}
    for name in ("nonrook_placements", "num_classes", "total_weight"):
        summary[name] = sum(s[name] for s in summaries)
    for name in ("well_defined", "disjoint_cover", "class_sums_zero", "total_zero", "ok"):
        summary[name] = all(s[name] for s in summaries)
    summary["witness"] = next((s["witness"] for s in summaries if s["witness"] is not None), None)
    _emit(summary)
    return 0 if summary["ok"] else 1


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
