"""The benchmark's own test: every workload in smoke mode, untraced and
traced, must pass its output gate and print a result line that matches
BENCHMARK.json.  Nothing here asserts on a timing.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_result_line(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert any(line.startswith("digest ") for line in lines)
    assert any(line.startswith("machine ") for line in lines)


def test_declared_per_layer_metrics_match_tracing():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == [*tracing.METRICS, ("trace.overhead_frac", "frac")]


def test_workloads_are_seeded():
    assert workloads.configs("flow", 5) == workloads.configs("flow", 5)
    assert workloads.configs("flow", 5) != workloads.configs("flow", 6)


def test_self_time_subtracts_direct_children():
    # root 0..100 holds a 10..40 child, which holds a 20..30 grandchild
    spans = [[0, 0, 100, -1, False, None], [1, 10, 40, 0, False, None],
             [2, 20, 30, 1, False, None]]
    assert tracing.self_times(spans) == [70, 20, 10]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "probes", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
