"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--scale", "tiny", "--seconds", "1", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def record_and_result(*args: str) -> tuple[dict, dict]:
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return json.loads(record_line)["record"], result


def assert_metrics(printed: dict, listed: list[dict]) -> None:
    assert list(printed) == [m["name"] for m in listed]
    for m in listed:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(printed[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    record, result = record_and_result("--workload", workload, "--trace", "0")
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert record["metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    for key in ("seed", "params", "python", "nproc", "cpu", "git_sha"):
        assert key in record


def test_per_layer_metrics_are_printed_with_units():
    _, result = record_and_result("--workload", "closed-forms", "--trace", "1")
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert result["correct"]
    assert (ROOT / ".bench_out" / "closed-forms-seed3-trace1-spans.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_expected_value_raises_error_rate(workload):
    record, result = record_and_result("--workload", workload, "--trace", "0", "--plant-error")
    assert not result["correct"] and result["failed"] >= 1
    assert record["metrics"]["error_rate"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "corpus-n7", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
