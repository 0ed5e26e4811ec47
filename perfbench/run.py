"""mlrook benchmark: exact-answer query latency and throughput per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each query is sent only after the
previous one returned.  The ``cli`` workload runs one ``python -m
mlrook.cli`` subprocess at a time.  Queries come from ``--seed`` alone
(see ``workloads.py``); every answer is checked against ``reference.py``,
which never calls the library.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under span wrappers (``tracing.py``) and
reports per-layer self time, call counts, exact work counters and the
tracing overhead; spans go to ``.bench_out/`` when the run ends.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those declared in ``BENCHMARK.json``.  The line before it records the
seed, a digest of the query list, the source digest and commit, the
Python version, ``nproc``, sample counts and the work counters.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9

# The machine's speed drifts by a fifth or more between processes and over
# tens of seconds when other tenants share its cores.  Every timed region
# is therefore preceded by a fixed calibration kernel, and its time is
# rescaled to what it would have been had the kernel taken
# NOMINAL_CALIBRATION_S, the kernel's median time on the 2-core x86
# container the bands were tuned on.  The kernel is the benchmark's own
# product expansion (list building, big-integer multiply-adds, interpreter
# loops), which tracked the drift of all three library workloads better
# than a plain integer loop.  It never calls mlrook, so a faster library
# still shows as faster.  Raw times are reported beside the rescaled ones.
CALIBRATION_ROOTS = [(7 * i) % 2003 - 1000 for i in range(90)]
NOMINAL_CALIBRATION_S = 0.00075


def calibrate() -> float:
    """Time the calibration kernel: the machine's speed right now."""
    t0 = perf_counter()
    reference.expand(CALIBRATION_ROOTS)
    return perf_counter() - t0


def load_library():
    """Import mlrook from this checkout's ``src``, nowhere else."""
    for name in [k for k in sys.modules if k == "mlrook" or k.startswith("mlrook.")]:
        del sys.modules[name]
    lib = importlib.import_module("mlrook")
    importlib.import_module("mlrook.cli")
    if Path(lib.__file__).resolve().parent != SRC / "mlrook":
        raise ImportError(f"mlrook was imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(queries):
    """Import the library and build every query's boards, SETUP_REPS times.

    Returns the median rescaled set-up time, the last library import and
    its boards.
    """
    times = []
    for _ in range(SETUP_REPS):
        scale = NOMINAL_CALIBRATION_S / calibrate()
        t0 = perf_counter()
        lib = load_library()
        boards = [tuple(lib.make_board(h) for h in q.boards) for q in queries]
        times.append((perf_counter() - t0) * scale)
    return statistics.median(times), lib, boards


def source_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlrook").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a checkout without .git has no commit to report
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {
        "src_sha256": digest.hexdigest()[:16],
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def clear_caches() -> None:
    """Empty every functools cache in mlrook, as a fresh process would have."""
    for name, mod in list(sys.modules.items()):
        if name == "mlrook" or name.startswith("mlrook."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Client:
    """One closed-loop client: runs a query, times it, checks the answer."""

    def __init__(self, workload, queries, expected, lib, boards):
        self.workload = workload
        self.queries = queries
        self.expected = expected
        self.lib = lib
        self.boards = boards
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.coeff_bits = 0
        pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def _check(self, i, raw) -> bool:
        q = self.queries[i]
        try:
            ok = workloads.answer(q, raw) == self.expected[i]
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            ok = False
            self._note(i, f"unreadable answer: {exc!r}")
        else:
            if not ok:
                self._note(i, "answer differs from the reference")
        if ok:
            self.coeff_bits = max(self.coeff_bits, workloads.coeff_bits(q, raw))
        return ok

    def _note(self, i, why) -> None:
        if len(self.failures) < 5:
            self.failures.append(f"query {i} ({self.queries[i].kind}): {why}")

    def library(self, i):
        """Run query i in-process; returns its latency in seconds, or None if it raised.

        A wrong answer is counted as a failure but keeps its latency.
        """
        q = self.queries[i]
        self.attempted += 1
        t0 = perf_counter()
        try:
            raw = workloads.call(q, self.lib, self.boards[i])
        except Exception as exc:  # an unexpected raise is a failed query, not a crash
            self.failed += 1
            self._note(i, f"raised {exc!r}")
            return None
        latency = perf_counter() - t0
        if not self._check(i, raw):
            self.failed += 1
        return latency

    def spawn(self, i):
        """Run CLI query i as one ``python -m mlrook.cli`` process."""
        argv = [sys.executable, "-m", "mlrook.cli", *self.queries[i].params["argv"]]
        self.attempted += 1
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=self.env, timeout=120)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.failed += 1
            self._note(i, "timed out")
            return None
        latency = perf_counter() - t0
        if proc.stderr:
            self._note(i, f"stderr: {proc.stderr.strip()[:200]}")
        if proc.stderr or not self._check(i, (proc.returncode, proc.stdout)):
            self.failed += 1
        return latency

    def in_process(self, i):
        """Run CLI query i through ``mlrook.cli.main`` in this process.

        Caches are emptied first, so the call does the work a fresh
        process would.  Returns the call's time, or None if it raised.
        """
        clear_caches()
        out = io.StringIO()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = sys.modules["mlrook.cli"].main(list(self.queries[i].params["argv"]))
        except Exception as exc:  # an unexpected raise is a failed query, not a crash
            self.failed += 1
            self._note(i, f"raised {exc!r}")
            return None
        elapsed = perf_counter() - t0
        if not self._check(i, (code, out.getvalue())):
            self.failed += 1
        return elapsed


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure(client, seconds):
    """Untraced closed loop: whole query list at least once, then until time is up.

    Returns rescaled latencies, raw latencies and each whole pass's
    throughput from rescaled latencies.
    """
    run_query = client.spawn if client.workload == "cli" else client.library
    n = len(client.queries)
    latencies, raw, pass_rates = [], [], []
    start = perf_counter()
    done = 0
    pass_time, pass_count = 0.0, 0
    while done < n or perf_counter() - start < seconds:
        scale = NOMINAL_CALIBRATION_S / calibrate()
        latency = run_query(done % n)
        done += 1
        if latency is not None:
            raw.append(latency)
            latencies.append(latency * scale)
            pass_time += latency * scale
            pass_count += 1
        if done % n == 0 and pass_time > 0:
            pass_rates.append(pass_count / pass_time)
            pass_time, pass_count = 0.0, 0
    return latencies, raw, pass_rates


def measure_traced(client, tracer, seconds):
    """Alternate untraced and traced passes; per-layer numbers per traced pass."""
    lib, n = client.lib, len(client.queries)
    cli = client.workload == "cli"
    passes = []  # (untraced wall, traced wall, busy by layer, calls by layer, startup)
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        untraced = traced = startup = 0.0
        tracer.reset_counts()
        for i in range(n):
            if cli:
                latency = client.spawn(i)
                base = client.in_process(i)
                if latency is not None and base is not None:
                    startup += latency - base
                untraced += base or 0.0
            else:
                untraced += client.library(i) or 0.0
        run_query = client.in_process if cli else client.library
        tracer.install(lib)
        try:
            for i in range(n):
                tracer.query = i
                traced += run_query(i) or 0.0
        finally:
            tracer.uninstall()
            tracer.query = None
        passes.append((untraced, traced, dict(tracer.busy), dict(tracer.calls), startup))
    return passes


def busy_metric(layer) -> str:
    # the cli layer's self time is the main span minus the library spans
    return "cli.self_s" if layer == "cli" else f"{layer}.busy_s"


def per_layer_metrics(client, passes, counts):
    """Per-layer numbers per pass; times are means over the traced passes,
    so the layers' busy times always sum to at most the traced wall time."""
    def mean(values):
        return statistics.fmean(list(values))

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = passes[0][3].get(layer, 0)
        metrics[busy_metric(layer)] = mean(p[2].get(layer, 0.0) for p in passes)
    for name in workloads.COUNTERS:
        if name != "cancellation.enumerated":
            metrics[name] = counts[name]
    enumerated = counts["cancellation.enumerated"]
    metrics["cancellation.useful_ratio"] = counts["cancellation.nonrook"] / enumerated if enumerated else 0.0
    metrics["ffpoly.max_coeff_bits"] = client.coeff_bits
    metrics["cli.startup_s"] = mean(p[4] for p in passes)
    metrics["trace.wall_s"] = mean(p[1] for p in passes)
    metrics["trace.overhead_ratio"] = sum(p[1] for p in passes) / sum(p[0] for p in passes)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed, seconds, trace, expected_hook=None):
    """One benchmark run; returns (result line, info line) as dicts."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    queries = workloads.generate(workload, seed)
    setup_s, lib, boards = setup(queries)
    expected = [workloads.expect(q) for q in queries]
    if expected_hook is not None:
        expected = expected_hook(expected)
    counts = dict.fromkeys(workloads.COUNTERS, 0)
    for q in queries:
        for key, value in workloads.counters(q).items():
            counts[key] += value
    client = Client(workload, queries, expected, lib, boards)
    info = {"workload": workload, "seed": seed, "queries_digest": workloads.digest(queries),
            "queries_per_pass": len(queries), "loop": "closed", "clients": 1, **source_info()}

    if trace:
        tracer = tracing.Tracer()
        passes = measure_traced(client, tracer, seconds)
        metrics = per_layer_metrics(client, passes, counts)
        wall = metrics["trace.wall_s"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload}-{seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        info.update(traced_passes=len(passes), spans_file=str(spans_file.relative_to(ROOT)),
                    ceiling={layer: metrics[busy_metric(layer)] / wall for layer in tracing.LAYERS})
        declared = manifest["per_layer"]
    else:
        latencies, raw, pass_rates = measure(client, seconds)
        if not pass_rates:
            raise RuntimeError(f"every query raised; nothing was measured: {client.failures}")
        metrics = {
            "setup_s": setup_s,
            "queries_per_s": statistics.median(pass_rates),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": quantile(latencies, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb(workload),
        }
        info.update(samples=len(latencies), passes=len(pass_rates), counters=counts,
                    raw_p50_ms=statistics.median(raw) * 1e3, raw_p90_ms=quantile(raw, 90) * 1e3)
        declared = manifest["end_to_end"]
    info.update(attempted=client.attempted, failed=client.failed,
                failed_frac=client.failed / client.attempted, failures=client.failures)
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    return result, info


def peak_rss_mb(workload) -> float:
    """Peak resident memory: this process, or the largest CLI child process."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlrook" / "__init__.py").is_file():
        print(f"error: no mlrook sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
