"""The integer options' one-line diagnostics, and ``python -m mlrook.cli``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlrook
from mlrook.cli import main

ENUMERATE = ["enumerate", "--board", "1,2", "--m", "2", "--k", "1", "--kind", "file"]


@pytest.mark.parametrize("option", ["--m", "--k", "--limit"])
@pytest.mark.parametrize("token", ["x", "1.5", ""])
def test_non_integer_value_is_one_error_line(capsys, option, token):
    argv = list(ENUMERATE)
    if option in argv:
        argv[argv.index(option) + 1] = token
    else:
        argv += [option, token]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{option[2:]} must be an integer, got {token!r}" in captured.err


def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mlrook.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "mlrook.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["info", "--board", "1,2,2,3", "--m", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    done = _run_module(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_module_entry_point_validation_error_exits_2():
    done = _run_module("info", "--board", "2,1", "--m", "2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
