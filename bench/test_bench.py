"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
It checks that every workload of ``bench/run.py``, including any that
BENCHMARK.json leaves out, reports every metric BENCHMARK.json names with
its unit and that no operation fails; the sizes are too small for timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)

sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def run_bench(cwd, *flags):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *flags],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_reported(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert f"{workload} error_rate 0.0 ratio" in proc.stdout
    named = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in named}
    for m in named:
        value = result["metrics"][m["name"]]["value"]
        assert f"{workload} {m['name']} {value!r} {m['unit']}\n" in proc.stdout


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    name = SPEC["workloads"][0]["name"]
    proc = run_bench(
        tmp_path, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
