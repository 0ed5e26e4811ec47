import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_holds_every_seed_and_the_median(tmp_path, monkeypatch):
    # the runs are faked: the record's shape and medians are what is checked
    script = load_script()
    manifest = {"run_seconds": 7, "workloads": [{"name": "enum"}, {"name": "cli"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(script, "ROOT", tmp_path)
    calls = []

    def fake_run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        info = {"python": "3.x", "nproc": 2, "src_sha256": "abc"}
        metrics = {"queries_per_s": {"value": float(seed), "unit": "1/s"}}
        return info, {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "run_once", fake_run)
    assert script.main(["--label", "t"]) == 0
    assert calls == [(w, s, 7) for w in ("enum", "cli") for s in script.SEEDS]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t" and record["src_sha256"] == "abc"
    assert record["commit"] is None  # no git checkout under tmp_path
    enum = record["workloads"]["enum"]
    assert [r["seed"] for r in enum["runs"]] == list(script.SEEDS)
    assert enum["median"] == {"queries_per_s": float(sorted(script.SEEDS)[1])}


def test_wrong_answers_fail_the_record(tmp_path, monkeypatch):
    script = load_script()
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "enum"}]})
    )
    monkeypatch.setattr(script, "ROOT", tmp_path)
    info = {"python": "3.x", "nproc": 2, "src_sha256": "abc"}
    bad = {"correct": False, "attempted": 5, "failed": 1,
           "metrics": {"queries_per_s": {"value": 1.0, "unit": "1/s"}}}
    monkeypatch.setattr(script, "run_once", lambda w, s, t: (info, bad))
    assert script.main(["--label", "t"]) == 1
    assert (tmp_path / "BENCH_t.json").exists()
