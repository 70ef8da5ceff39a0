"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

It takes a minute or two: each workload is traced twice on one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMED = ("trace.self_coverage",)  # a ratio of two times, not a count


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PASSES", 1)


def deterministic(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if not name.endswith("_s") and name not in TIMED}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_repeat_exactly(workload, short_runs):
    first, _ = run.measure(workload, 5, 0, trace=True)
    second, _ = run.measure(workload, 5, 0, trace=True)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
        # Layer self times account for the whole traced pass.
        assert result["metrics"]["trace.self_coverage"]["value"] >= 0.99
    counters = deterministic(first["metrics"])
    assert counters == deterministic(second["metrics"])
    assert any(counters[f"{layer}.source_lines"] for layer in run.LAYERS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload):
    assert WORKLOADS[workload](3).files == WORKLOADS[workload](3).files
    assert WORKLOADS[workload](3).files != WORKLOADS[workload](4).files


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csf_free",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csf_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
