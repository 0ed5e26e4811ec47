"""Record the benchmark's end-to-end metrics for this checkout.

Usage (from the repository root):

    python3 scripts/bench_record.py --label 0fb23ed

Runs ``python3 perfbench/run.py --trace 0`` for every workload that
``BENCHMARK.json`` declares, on seeds 101-103, each for the manifest's
``run_seconds``, one run at a time, and writes ``BENCH_<label>.json`` at
the repository root.  The record holds the commit, whether ``src/``
differs from it, the Python version, ``nproc``, the source digest that
``run.py`` reports, and for each workload every seed's metrics and
their median.  A run whose answers are wrong is recorded as such and
makes the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run; returns its (info line, result line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    info_line, result_line = out.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    head = git("rev-parse", "HEAD")
    commit = head.stdout.strip() if head.returncode == 0 else None
    record = {
        "label": args.label,
        "commit": commit,
        "src_differs_from_commit": (
            git("diff", "--quiet", "HEAD", "--", "src").returncode != 0 if commit else None
        ),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        runs = []
        for seed in SEEDS:
            info, result = run_once(workload, seed, seconds)
            for key in ("python", "nproc", "src_sha256"):
                record.setdefault(key, info[key])
            ok = ok and result["correct"] is True and result["failed"] == 0
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        names = runs[0]["metrics"]
        record["workloads"][workload] = {
            "runs": runs,
            "median": {k: statistics.median(r["metrics"][k] for r in runs) for k in names},
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
