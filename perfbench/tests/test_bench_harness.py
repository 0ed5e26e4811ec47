"""The benchmark harness: seeded inputs, caught wrong answers, exact
counters, the traced mode and the run's exit behaviour."""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import reference as ref
import run
import tracing
import workloads


def _perturb(value):
    """A nearby wrong answer of the same shape."""
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (tuple, list)) and value:
        return type(value)([_perturb(value[0]), *value[1:]])
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: _perturb(value[key])}
    raise TypeError(f"cannot perturb {value!r}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload):
    a, b = workloads.generate(workload, 11), workloads.generate(workload, 11)
    assert a == b
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(workloads.generate(workload, 12)) != workloads.digest(a)
    assert len(a) >= 100  # at least ten samples beyond p90 in one pass


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly(workload):
    def totals():
        out = dict.fromkeys(workloads.COUNTERS, 0)
        for q in workloads.generate(workload, 5):
            for key, value in workloads.counters(q).items():
                out[key] += value
        return out

    first = totals()
    assert first == totals()
    assert first["boards.cells"] > 0


def test_queries_stay_in_their_work_bands():
    for q in workloads.generate("enum", 3) + workloads.generate("cover", 3):
        h, m = q.heights, q.m
        if q.kind == "weighted_file_numbers":
            assert workloads.in_band(q.kind, math.prod(1 + b for b in h))
        elif q.kind == "verify_cover":
            e, r = ref.file_counts(h), ref.rook_numbers(h, m)
            assert workloads.in_band(q.kind, sum(e[k] - r[k] for k in range(2, len(h) + 1)))


@pytest.mark.parametrize("step", [7, 1])
def test_corrupted_reference_is_caught(step):
    corrupt = set(range(0, 120, step))

    def hook(expected):
        return [_perturb(v) if i in corrupt else v for i, v in enumerate(expected)]

    result, info = run.run("enum", 2, 0, 0, expected_hook=hook)
    assert result["correct"] is False
    assert result["failed"] == len(corrupt)  # one pass; no corrupted answer passes
    assert info["failed_frac"] > 0


def test_wrong_library_answer_is_caught():
    queries = workloads.generate("enum", 4)
    _, lib, boards = run.setup(queries)
    expected = [workloads.expect(q) for q in queries]
    lib.weighted_file_numbers = lambda board, m: (1,) * (board.n + 1)
    client = run.Client("enum", queries, expected, lib, boards)
    run.measure(client, 0)
    assert client.failed == sum(q.kind == "weighted_file_numbers" for q in queries)


def test_every_cli_subcommand_checks_out():
    queries = workloads.generate("cli", 1)
    first = {}
    for i, q in enumerate(queries):
        first.setdefault(q.kind, i)
    assert sorted(first) == sorted(workloads.CLI_COMMANDS)
    _, lib, boards = run.setup(queries)
    client = run.Client("cli", queries, [workloads.expect(q) for q in queries], lib, boards)
    for i in first.values():
        assert client.spawn(i) is not None
        assert client.in_process(i) is not None
    assert client.failed == 0, client.failures


def test_traced_run_accounts_for_every_layer():
    result, info = run.run("cover", 3, 0, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    busy = sum(metrics[run.busy_metric(layer)] for layer in tracing.LAYERS)
    assert 0 < busy <= metrics["trace.wall_s"]
    for layer in ("boards", "placements", "ffpoly", "rooktheory", "cancellation"):
        assert metrics[f"{layer}.calls"] > 0 and metrics[f"{layer}.busy_s"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["cancellation.members"] == metrics["cancellation.nonrook"] > 0
    assert not hasattr(sys.modules["mlrook.placements"].enumerate_file_placements, "__wrapped__")

    again, _ = run.run("cover", 3, 0, 1)
    counts = [name for name in metrics if not name.endswith(("_s", "_ratio"))]
    assert {n: metrics[n] for n in counts} == {n: again["metrics"][n]["value"] for n in counts}


def test_self_time_excludes_children_and_consumers():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        traced_inner()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    traced_inner = tracer.wrap(inner, "b", "b.inner")
    traced_outer = tracer.wrap(outer, "a", "a.outer")
    traced_produce = tracer.wrap(produce, "g", "g.produce")
    traced_outer()
    for _ in traced_produce():
        time.sleep(0.02)  # the consumer's time is not the generator's
    assert 0.02 <= tracer.busy["a"] < 0.035
    assert 0.03 <= tracer.busy["b"] < 0.045
    assert 0.03 <= tracer.busy["g"] < 0.045
    assert tracer.calls == {"a": 1, "b": 1, "g": 1}
    spans = {s[1]: s for s in tracer.spans}
    assert spans["b.inner"][4] == spans["a.outer"][0]  # parent id


def test_manifest_matches_the_contract():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
