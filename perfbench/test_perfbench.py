"""The benchmark's own tests (slow, about three minutes):

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs with one seed must give identical counters, and every
metric a run prints must be named as BENCHMARK.json names it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, seed: int, trace: int, seconds: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    return result["metrics"]


def check_names(metrics: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(NAME.fullmatch(name) for name in metrics)
    assert set(metrics) == set(declared)
    assert {k: v["unit"] for k, v in metrics.items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = run(workload, 5, 1), run(workload, 5, 1)
    check_names(first, "per_layer")
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert {"expr.program_instructions", "expr.run_mod.calls",
            "ranktest.points_discarded", "sim.rhs_calls",
            "transform.eta_prime_value.calls"} <= counts
    assert ({k: first[k]["value"] for k in counts}
            == {k: second[k]["value"] for k in counts})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_declared(workload):
    metrics = run(workload, 5, 0)
    check_names(metrics, "end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
