"""Smoke tests of the benchmark: tiny sizes, the same workloads and checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(record), result


def assert_metrics_match(result, declared):
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(workload):
    record, result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 0.2,
                                     "--trace", 0, "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert record["ops_failed_frac"] == 0.0
    assert_metrics_match(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["detail"]["stages"]) == 3
    for key in ("git_commit", "python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "llc"):
        assert key in record["environment"]

    record, result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 0.2,
                                     "--trace", 1, "--smoke"))
    assert result["correct"] is True
    assert_metrics_match(result, SPEC["per_layer"])
    assert (ROOT / record["trace_file"]).is_file()
    assert all(name in result["metrics"] or name.startswith("span:") for name in record["missing"])


def test_held_out_seed_replaces_the_seed():
    record, result = result_of(bench("--workload", "certify", "--seed", 3, "--seconds", 0.2,
                                     "--trace", 0, "--smoke", "--held-out"))
    assert result["correct"] is True
    assert record["held_out"] is True and record["seed"] != 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
