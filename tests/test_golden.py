"""Golden digests of what the CLI and the demos print.

A fixed sweep runs every subcommand in process on every board of at
most 3 columns and height at most 4, for m = 1..3, and hashes each
``(argv, exit code, stdout)``; the demos' stdout is hashed the same way.
The digests were recorded from the code before any change that must
keep stdout byte-identical, so a change that alters a single printed
byte fails here.  Stderr is not hashed: diagnostics may be reworded.
"""

import contextlib
import hashlib
import io
import runpy
from itertools import combinations_with_replacement
from pathlib import Path

import mlrook.cli as cli

CLI_DIGEST = "e8747c0229f5e39bbf7e0337a6fa47204483e6e41e7b1480221332bfc90d9cc4"
DEMO_DIGEST = "69714a696c449d30b0eadffc3da0c9b5ed3dfc52b888bcb1e5883208093390e2"

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def sweep():
    """Every argv of the sweep, in a fixed order."""
    for n in range(4):
        for heights in combinations_with_replacement(range(5), n):
            board = ",".join(map(str, heights))
            for m in ("1", "2", "3"):
                b = ["--board", board, "--m", m]
                yield ["info", *b]
                for kind in ("file", "rook", "mlevel"):
                    yield ["enumerate", *b, "--k", "2", "--kind", kind, "--limit", "3"]
                yield ["numbers", *b, "--kind", "rook"]
                yield ["numbers", *b, "--kind", "file", "--format", "csv"]
                for form in ("pm", "file", "gjw", "br", "zone", "level"):
                    yield ["poly", *b, "--form", form]
                yield ["poly", *b, "--form", "pm", "--basis", "mfalling"]
                yield ["verify", *b]
                yield ["partition", *b]
                yield ["partition", *b, "--k", "2"]
                yield ["equiv", "--a", board, "--b", "1,1,2,4", "--m", m]
                yield ["census", "--levels", board, "--m", m, "--list"]
    # diagnostics: stdout must stay empty and the exit code 2
    yield ["info", "--board", "1,x", "--m", "2"]
    yield ["info", "--board", "2,1", "--m", "2"]
    yield ["numbers", "--board", "1,2", "--m", "0", "--kind", "rook"]
    yield ["enumerate", "--board", "1,2", "--m", "2", "--k", "-1", "--kind", "file"]
    yield ["enumerate", "--board", "1,2", "--m", "2", "--k", "1", "--kind", "file", "--limit", "-1"]
    yield ["census", "--levels", "0,x", "--m", "2"]
    yield ["census", "--levels", "0,-1", "--m", "2"]


def _digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(repr(run).encode() + b"\n")
    return h.hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return argv, code, out.getvalue()


def test_cli_sweep_digest(monkeypatch):
    # building the parser is most of a call's time and reads no input,
    # so the sweep builds it once
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    runs = [_run(argv) for argv in sweep()]
    assert _digest(runs) == CLI_DIGEST, f"{len(runs)} calls"


def test_demo_stdout_digest():
    runs = []
    for path in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        runs.append((path.name, out.getvalue()))
    assert len(runs) == 3
    assert _digest(runs) == DEMO_DIGEST
